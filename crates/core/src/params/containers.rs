//! Container abstractions and resize policies.
//!
//! KaMPIng accepts "every container that models
//! `std::contiguous_range`" (§III); the Rust analogue is the [`AsSlice`]
//! family below, implemented for slices, vectors (borrowed and owned) and
//! arrays. Resize policies (§III-C) control whether the library may
//! reallocate a user-provided buffer.

use kmp_mpi::Plain;

/// Read access to contiguous typed storage.
pub trait AsSlice<T> {
    /// The data as a slice.
    fn as_slice(&self) -> &[T];
}

impl<T> AsSlice<T> for &[T] {
    fn as_slice(&self) -> &[T] {
        self
    }
}

impl<T> AsSlice<T> for &Vec<T> {
    fn as_slice(&self) -> &[T] {
        self
    }
}

impl<T> AsSlice<T> for Vec<T> {
    fn as_slice(&self) -> &[T] {
        self
    }
}

impl<T, const N: usize> AsSlice<T> for [T; N] {
    fn as_slice(&self) -> &[T] {
        self
    }
}

impl<T, const N: usize> AsSlice<T> for &[T; N] {
    fn as_slice(&self) -> &[T] {
        *self
    }
}

/// Mutable access to contiguous typed storage.
pub trait AsSliceMut<T>: AsSlice<T> {
    /// The data as a mutable slice.
    fn as_slice_mut(&mut self) -> &mut [T];
}

impl<T> AsSliceMut<T> for Vec<T> {
    fn as_slice_mut(&mut self) -> &mut [T] {
        self
    }
}

impl<T, const N: usize> AsSliceMut<T> for [T; N] {
    fn as_slice_mut(&mut self) -> &mut [T] {
        self
    }
}

/// A buffer resize policy (§III-C). Chosen *at compile time* per
/// parameter; only the selected policy's code is instantiated.
pub trait ResizePolicy {
    /// The length storage of `len` elements is given to receive `needed`
    /// elements under this policy; the receive writes the result into
    /// its prefix and leaves the rest as it was.
    ///
    /// `NoResize` reports an undersized buffer as
    /// [`MpiError::Truncated`](kmp_mpi::MpiError::Truncated) — the Rust
    /// rendering of KaMPIng's "no checking, assume capacity is large
    /// enough" default, upgraded from undefined behaviour to a
    /// recoverable error.
    fn resized_len<T: Plain>(len: usize, needed: usize) -> kmp_mpi::Result<usize>;

    /// Human-readable policy name (used in diagnostics).
    const NAME: &'static str;
}

/// Never resize; error if the buffer is already too small (default).
#[derive(Clone, Copy, Debug, Default)]
pub struct NoResize;

/// Resize to exactly the needed size.
#[derive(Clone, Copy, Debug, Default)]
pub struct ResizeToFit;

/// Grow to the needed size if too small; never shrink.
#[derive(Clone, Copy, Debug, Default)]
pub struct GrowOnly;

impl ResizePolicy for NoResize {
    fn resized_len<T: Plain>(len: usize, needed: usize) -> kmp_mpi::Result<usize> {
        if len < needed {
            return Err(kmp_mpi::MpiError::Truncated {
                message_bytes: needed * std::mem::size_of::<T>(),
                buffer_bytes: len * std::mem::size_of::<T>(),
            });
        }
        Ok(len)
    }
    const NAME: &'static str = "no_resize";
}

impl ResizePolicy for ResizeToFit {
    fn resized_len<T: Plain>(_len: usize, needed: usize) -> kmp_mpi::Result<usize> {
        Ok(needed)
    }
    const NAME: &'static str = "resize_to_fit";
}

impl ResizePolicy for GrowOnly {
    fn resized_len<T: Plain>(len: usize, needed: usize) -> kmp_mpi::Result<usize> {
        Ok(len.max(needed))
    }
    const NAME: &'static str = "grow_only";
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn as_slice_forms() {
        let v = vec![1u8, 2, 3];
        assert_eq!(AsSlice::as_slice(&&v), &[1, 2, 3]);
        assert_eq!(AsSlice::as_slice(&v.clone()), &[1, 2, 3]);
        assert_eq!(AsSlice::as_slice(&&v[..]), &[1, 2, 3]);
        assert_eq!(AsSlice::as_slice(&[9u8, 8]), &[9, 8]);
    }

    #[test]
    fn as_slice_mut_forms() {
        let mut v = vec![1u8, 2];
        v.as_slice_mut()[0] = 9;
        assert_eq!(v, vec![9, 2]);
        let mut a = [1u16, 2];
        a.as_slice_mut()[1] = 7;
        assert_eq!(a, [1, 7]);
    }

    #[test]
    fn resize_to_fit_always_matches() {
        assert_eq!(ResizeToFit::resized_len::<u32>(10, 3), Ok(3));
        assert_eq!(ResizeToFit::resized_len::<u32>(3, 8), Ok(8));
    }

    #[test]
    fn grow_only_never_shrinks() {
        assert_eq!(GrowOnly::resized_len::<u32>(10, 3), Ok(10));
        assert_eq!(GrowOnly::resized_len::<u32>(10, 20), Ok(20));
    }

    #[test]
    fn no_resize_accepts_fitting_buffer() {
        assert_eq!(NoResize::resized_len::<u8>(4, 4), Ok(4));
        assert_eq!(NoResize::resized_len::<u8>(6, 4), Ok(6));
    }

    #[test]
    fn no_resize_errors_when_too_small() {
        let err = NoResize::resized_len::<u8>(2, 4).unwrap_err();
        assert!(
            matches!(
                err,
                kmp_mpi::MpiError::Truncated {
                    message_bytes: 4,
                    buffer_bytes: 2
                }
            ),
            "undersized no_resize buffers report Truncated, got {err}"
        );
    }
}
