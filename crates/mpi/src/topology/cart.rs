//! Cartesian communicators (mirrors `MPI_Cart_create` and friends).
//!
//! An n-dimensional grid with per-dimension periodicity. Ranks are laid
//! out row-major (last dimension varies fastest, the MPI convention),
//! so `rank = ((c0 * d1) + c1) * d2 + c2 ...`. The neighbor lists feed
//! the neighborhood collectives: per dimension, the negative-direction
//! neighbor then the positive-direction neighbor, skipping
//! non-periodic boundaries (where MPI would report `MPI_PROC_NULL`, we
//! simply omit the block — the lists stay dense and
//! declaration-ordered).

use super::{finish_topology, Neighborhood};
use crate::comm::Comm;
use crate::error::{MpiError, Result};
use crate::Rank;

/// A communicator with an attached cartesian grid topology.
pub struct CartComm {
    /// The private dup neighborhood traffic runs on.
    comm: Comm,
    dims: Vec<usize>,
    periods: Vec<bool>,
    coords: Vec<usize>,
    sources: Vec<Rank>,
    destinations: Vec<Rank>,
}

impl Comm {
    /// Creates a cartesian communicator over all ranks (mirrors
    /// `MPI_Cart_create`). `dims` must multiply out to exactly the
    /// communicator size, and `periods` declares per-dimension wraparound.
    ///
    /// `reorder` is accepted for interface fidelity but ignored: ranks
    /// here are homogeneous threads of one process, so there is no
    /// placement to optimize and every rank keeps its parent rank.
    pub fn create_cart(&self, dims: &[usize], periods: &[bool], reorder: bool) -> Result<CartComm> {
        let _ = reorder;
        self.count_op("cart_create");
        if dims.is_empty() || dims.contains(&0) {
            return Err(MpiError::InvalidLayout(format!(
                "cart: dims {dims:?} must be non-empty and positive"
            )));
        }
        if periods.len() != dims.len() {
            return Err(MpiError::InvalidLayout(format!(
                "cart: {} periods for {} dims",
                periods.len(),
                dims.len()
            )));
        }
        let cells: usize = dims.iter().product();
        if cells != self.size() {
            return Err(MpiError::InvalidLayout(format!(
                "cart: dims {dims:?} cover {cells} ranks, communicator has {}",
                self.size()
            )));
        }
        let coords = coords_of(self.rank(), dims);

        // Per dimension: negative neighbor, then positive neighbor.
        // Symmetric grid ⇒ the set of ranks that send to us equals the
        // set we send to, in the same declaration order.
        let mut neighbors: Vec<Rank> = Vec::with_capacity(2 * dims.len());
        for dim in 0..dims.len() {
            for disp in [-1isize, 1] {
                if let Some(r) = shifted_rank(&coords, dims, periods, dim, disp) {
                    neighbors.push(r);
                }
            }
        }

        Ok(CartComm {
            comm: finish_topology(self)?,
            dims: dims.to_vec(),
            periods: periods.to_vec(),
            coords,
            sources: neighbors.clone(),
            destinations: neighbors,
        })
    }
}

impl CartComm {
    /// The underlying communicator.
    pub fn comm(&self) -> &Comm {
        &self.comm
    }

    /// The grid extents.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Per-dimension periodicity.
    pub fn periods(&self) -> &[bool] {
        &self.periods
    }

    /// This rank's grid coordinates.
    pub fn coords(&self) -> &[usize] {
        &self.coords
    }

    /// Coordinates of an arbitrary rank (mirrors `MPI_Cart_coords`).
    pub fn cart_coords(&self, rank: Rank) -> Result<Vec<usize>> {
        self.comm.check_rank(rank)?;
        Ok(coords_of(rank, &self.dims))
    }

    /// Rank at the given coordinates (mirrors `MPI_Cart_rank`).
    /// Coordinates on periodic dimensions wrap; out-of-range
    /// coordinates on non-periodic dimensions are an error.
    pub fn cart_rank(&self, coords: &[isize]) -> Result<Rank> {
        if coords.len() != self.dims.len() {
            return Err(MpiError::InvalidLayout(format!(
                "cart: {} coords for {} dims",
                coords.len(),
                self.dims.len()
            )));
        }
        let mut rank = 0usize;
        for (dim, &c) in coords.iter().enumerate() {
            let extent = self.dims[dim] as isize;
            let c = if self.periods[dim] {
                c.rem_euclid(extent)
            } else if (0..extent).contains(&c) {
                c
            } else {
                return Err(MpiError::InvalidLayout(format!(
                    "cart: coordinate {c} out of range 0..{extent} in non-periodic dim {dim}"
                )));
            };
            rank = rank * self.dims[dim] + c as usize;
        }
        Ok(rank)
    }

    /// The `(source, destination)` pair for a shift of `disp` along
    /// `dim` (mirrors `MPI_Cart_shift`): `destination` is the rank
    /// `disp` steps in the positive direction (whom you'd send to),
    /// `source` the rank `disp` steps in the negative direction (whom
    /// you'd receive from). `None` stands in for `MPI_PROC_NULL` at a
    /// non-periodic boundary.
    pub fn cart_shift(&self, dim: usize, disp: isize) -> Result<(Option<Rank>, Option<Rank>)> {
        if dim >= self.dims.len() {
            return Err(MpiError::InvalidLayout(format!(
                "cart: shift along dim {dim}, grid has {} dims",
                self.dims.len()
            )));
        }
        let source = shifted_rank(&self.coords, &self.dims, &self.periods, dim, -disp);
        let dest = shifted_rank(&self.coords, &self.dims, &self.periods, dim, disp);
        Ok((source, dest))
    }
}

impl Neighborhood for CartComm {
    fn comm(&self) -> &Comm {
        &self.comm
    }

    fn sources(&self) -> &[Rank] {
        &self.sources
    }

    fn destinations(&self) -> &[Rank] {
        &self.destinations
    }
}

/// Row-major coordinate decomposition (last dim fastest).
fn coords_of(rank: Rank, dims: &[usize]) -> Vec<usize> {
    let mut coords = vec![0usize; dims.len()];
    let mut rest = rank;
    for dim in (0..dims.len()).rev() {
        coords[dim] = rest % dims[dim];
        rest /= dims[dim];
    }
    coords
}

/// Rank `disp` steps along `dim` from `coords`, or `None` past a
/// non-periodic boundary.
fn shifted_rank(
    coords: &[usize],
    dims: &[usize],
    periods: &[bool],
    dim: usize,
    disp: isize,
) -> Option<Rank> {
    let extent = dims[dim] as isize;
    let raw = coords[dim] as isize + disp;
    let shifted = if periods[dim] {
        raw.rem_euclid(extent)
    } else if (0..extent).contains(&raw) {
        raw
    } else {
        return None;
    };
    let mut rank = 0usize;
    for (d, &c) in coords.iter().enumerate() {
        let c = if d == dim { shifted as usize } else { c };
        rank = rank * dims[d] + c;
    }
    Some(rank)
}

#[cfg(test)]
mod tests {
    use crate::collectives::neighborhood::NeighborhoodColl;
    use crate::topology::Neighborhood;
    use crate::Universe;

    #[test]
    fn coords_round_trip() {
        Universe::run(6, |comm| {
            let cart = comm.create_cart(&[2, 3], &[false, false], false).unwrap();
            let coords = cart.coords().to_vec();
            assert_eq!(coords, [comm.rank() / 3, comm.rank() % 3]);
            let back = cart
                .cart_rank(&coords.iter().map(|&c| c as isize).collect::<Vec<_>>())
                .unwrap();
            assert_eq!(back, comm.rank());
            assert_eq!(cart.cart_coords(comm.rank()).unwrap(), coords);
        });
    }

    #[test]
    fn bad_dims_rejected() {
        Universe::run(4, |comm| {
            assert!(comm.create_cart(&[3], &[false], false).is_err());
            assert!(comm.create_cart(&[2, 2], &[false], false).is_err());
            assert!(comm.create_cart(&[], &[], false).is_err());
            assert!(comm.create_cart(&[4, 0], &[false, false], false).is_err());
        });
    }

    #[test]
    fn shift_periodic_ring() {
        Universe::run(4, |comm| {
            let cart = comm.create_cart(&[4], &[true], false).unwrap();
            let (src, dst) = cart.cart_shift(0, 1).unwrap();
            assert_eq!(src, Some((comm.rank() + 3) % 4));
            assert_eq!(dst, Some((comm.rank() + 1) % 4));
            let (src2, dst2) = cart.cart_shift(0, 2).unwrap();
            assert_eq!(src2, Some((comm.rank() + 2) % 4));
            assert_eq!(dst2, Some((comm.rank() + 2) % 4));
        });
    }

    #[test]
    fn shift_open_line_has_boundaries() {
        Universe::run(4, |comm| {
            let cart = comm.create_cart(&[4], &[false], false).unwrap();
            let (src, dst) = cart.cart_shift(0, 1).unwrap();
            assert_eq!(src, comm.rank().checked_sub(1));
            assert_eq!(
                dst,
                if comm.rank() + 1 < 4 {
                    Some(comm.rank() + 1)
                } else {
                    None
                }
            );
        });
    }

    #[test]
    fn cart_rank_wraps_only_periodic_dims() {
        Universe::run(6, |comm| {
            let cart = comm.create_cart(&[2, 3], &[true, false], false).unwrap();
            // Periodic dim 0 wraps: coordinate -1 ≡ 1.
            assert_eq!(cart.cart_rank(&[-1, 0]).unwrap(), 3);
            // Non-periodic dim 1 does not.
            assert!(cart.cart_rank(&[0, 3]).is_err());
        });
    }

    #[test]
    fn neighbor_order_is_negative_then_positive_per_dim() {
        Universe::run(6, |comm| {
            let cart = comm.create_cart(&[2, 3], &[true, true], false).unwrap();
            if comm.rank() == 4 {
                // coords (1, 1): dim-0 neighbors (0,1)=1 both ways (extent
                // 2 periodic ⇒ duplicate), dim-1 neighbors (1,0)=3 and
                // (1,2)=5.
                assert_eq!(cart.sources(), &[1, 1, 3, 5]);
            }
            assert_eq!(cart.destinations(), cart.sources());
        });
    }

    #[test]
    fn halo_exchange_on_2d_torus() {
        // Classic stencil halo: every rank sends its rank id to all four
        // neighbors and checks what it gets back.
        Universe::run(6, |comm| {
            let cart = comm.create_cart(&[2, 3], &[true, true], false).unwrap();
            let sends: Vec<Vec<u32>> = cart
                .destinations()
                .iter()
                .map(|_| vec![comm.rank() as u32])
                .collect();
            let got = cart.neighbor_alltoall_vecs(&sends).unwrap();
            let expected: Vec<Vec<u32>> = cart.sources().iter().map(|&s| vec![s as u32]).collect();
            assert_eq!(got, expected);
        });
    }
}
