//! Reduction operations.
//!
//! MPI reductions take an operation handle; KaMPIng additionally maps STL
//! functors (`std::plus`) to MPI built-ins and accepts plain lambdas
//! (§II, §V-C). The substrate models this with the [`ReduceOp`] trait:
//! built-in operations are zero-sized types the compiler can inline and
//! (at the binding layer) recognize; user lambdas are wrapped with an
//! explicit commutativity declaration, which reduction algorithms use to
//! decide whether they must preserve rank order.

/// A binary reduction operation over values of type `T`.
pub trait ReduceOp<T> {
    /// Applies the operation. For non-commutative operations, `a` is
    /// always the operand originating from the *lower-ranked* block.
    fn apply(&self, a: &T, b: &T) -> T;

    /// Whether the operation may be applied in arbitrary order.
    fn is_commutative(&self) -> bool {
        true
    }
}

/// Elementwise sum (`MPI_SUM`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Sum;

/// Elementwise product (`MPI_PROD`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Prod;

/// Elementwise minimum (`MPI_MIN`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Min;

/// Elementwise maximum (`MPI_MAX`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Max;

/// Logical and over `u8`-encoded booleans (`MPI_LAND`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LogicalAnd;

/// Logical or over `u8`-encoded booleans (`MPI_LOR`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LogicalOr;

/// Bitwise and (`MPI_BAND`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BitAnd;

/// Bitwise or (`MPI_BOR`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BitOr;

/// Bitwise xor (`MPI_BXOR`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BitXor;

impl<T: Copy + std::ops::Add<Output = T>> ReduceOp<T> for Sum {
    #[inline]
    fn apply(&self, a: &T, b: &T) -> T {
        *a + *b
    }
}

impl<T: Copy + std::ops::Mul<Output = T>> ReduceOp<T> for Prod {
    #[inline]
    fn apply(&self, a: &T, b: &T) -> T {
        *a * *b
    }
}

impl<T: Copy + PartialOrd> ReduceOp<T> for Min {
    #[inline]
    fn apply(&self, a: &T, b: &T) -> T {
        if *b < *a {
            *b
        } else {
            *a
        }
    }
}

impl<T: Copy + PartialOrd> ReduceOp<T> for Max {
    #[inline]
    fn apply(&self, a: &T, b: &T) -> T {
        if *b > *a {
            *b
        } else {
            *a
        }
    }
}

impl ReduceOp<u8> for LogicalAnd {
    #[inline]
    fn apply(&self, a: &u8, b: &u8) -> u8 {
        u8::from(*a != 0 && *b != 0)
    }
}

impl ReduceOp<u8> for LogicalOr {
    #[inline]
    fn apply(&self, a: &u8, b: &u8) -> u8 {
        u8::from(*a != 0 || *b != 0)
    }
}

macro_rules! impl_bit_ops {
    ($($t:ty),*) => {$(
        impl ReduceOp<$t> for BitAnd {
            #[inline]
            fn apply(&self, a: &$t, b: &$t) -> $t { a & b }
        }
        impl ReduceOp<$t> for BitOr {
            #[inline]
            fn apply(&self, a: &$t, b: &$t) -> $t { a | b }
        }
        impl ReduceOp<$t> for BitXor {
            #[inline]
            fn apply(&self, a: &$t, b: &$t) -> $t { a ^ b }
        }
    )*};
}

impl_bit_ops!(u8, u16, u32, u64, u128, usize, i8, i16, i32, i64, i128, isize);

/// A user-provided reduction lambda with declared commutativity.
#[derive(Clone, Copy, Debug)]
pub struct Lambda<F> {
    f: F,
    commutative: bool,
}

impl<T, F: Fn(&T, &T) -> T> ReduceOp<T> for Lambda<F> {
    #[inline]
    fn apply(&self, a: &T, b: &T) -> T {
        (self.f)(a, b)
    }

    #[inline]
    fn is_commutative(&self) -> bool {
        self.commutative
    }
}

/// Wraps a lambda as a commutative reduction operation.
pub fn commutative<T, F: Fn(&T, &T) -> T>(f: F) -> Lambda<F> {
    Lambda {
        f,
        commutative: true,
    }
}

/// Wraps a lambda as a non-commutative reduction operation; reduction
/// algorithms will preserve rank order for it. Like every MPI
/// operation it must still be associative: `scan` / `exscan` combine
/// partial prefixes, not one contribution at a time.
pub fn non_commutative<T, F: Fn(&T, &T) -> T>(f: F) -> Lambda<F> {
    Lambda {
        f,
        commutative: false,
    }
}

// Plain `Fn(&T, &T) -> T` closures are accepted directly and treated as
// commutative, matching the common case (and KaMPIng's default).
impl<T, F: Fn(&T, &T) -> T> ReduceOp<T> for F {
    #[inline]
    fn apply(&self, a: &T, b: &T) -> T {
        self(a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_ops() {
        assert_eq!(ReduceOp::<u32>::apply(&Sum, &2, &3), 5);
        assert_eq!(ReduceOp::<u32>::apply(&Prod, &2, &3), 6);
        assert_eq!(ReduceOp::<i32>::apply(&Min, &-2, &3), -2);
        assert_eq!(ReduceOp::<i32>::apply(&Max, &-2, &3), 3);
        assert_eq!(LogicalAnd.apply(&1, &0), 0);
        assert_eq!(LogicalAnd.apply(&1, &2), 1);
        assert_eq!(LogicalOr.apply(&0, &0), 0);
        assert_eq!(LogicalOr.apply(&0, &7), 1);
        assert_eq!(ReduceOp::<u8>::apply(&BitXor, &0b1010, &0b0110), 0b1100);
    }

    #[test]
    fn float_min_max() {
        assert_eq!(ReduceOp::<f64>::apply(&Min, &1.5, &-0.5), -0.5);
        assert_eq!(ReduceOp::<f64>::apply(&Max, &1.5, &-0.5), 1.5);
    }

    #[test]
    fn lambda_commutativity_flags() {
        let c = commutative(|a: &u32, b: &u32| a + b);
        assert!(ReduceOp::<u32>::is_commutative(&c));
        let nc = non_commutative(|a: &u32, b: &u32| a.wrapping_sub(*b));
        assert!(!ReduceOp::<u32>::is_commutative(&nc));
        assert_eq!(nc.apply(&10, &3), 7);
    }

    #[test]
    fn bare_closures_are_ops() {
        fn takes_op<T, O: ReduceOp<T>>(op: O, a: T, b: T) -> T {
            op.apply(&a, &b)
        }
        assert_eq!(takes_op(|a: &u64, b: &u64| a * b, 6, 7), 42);
    }
}
