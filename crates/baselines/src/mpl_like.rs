//! MPL-style bindings (§II of the paper).
//!
//! Design traits reproduced from MPL:
//! - every buffer is described by an explicit **layout** object
//!   ([`ContiguousLayout`], [`Layouts`]); communication calls take
//!   (data, layout) pairs, which is powerful for scientific halo
//!   exchanges but verbose for the irregular patterns of discrete
//!   algorithms (§II);
//! - variable-size collectives do **not** pass counts/displacements to
//!   the corresponding MPI operation; they wrap each peer's block in a
//!   derived datatype and go through an `alltoallw`-equivalent path —
//!   one message per peer pair, even for empty blocks. This is the
//!   mechanism behind the gatherv/alltoallv overheads the paper (and
//!   Ghosh et al.) measured, and it is what makes `mpl` the slowest
//!   line in Fig. 8/10;
//! - no error handling (MPL has none); usage errors panic.

use kmp_mpi::op::ReduceOp;
use kmp_mpi::{Comm, Plain, Rank, Result};

/// A contiguous layout: `count` elements of `T` at offset `displ`
/// (MPL's `contiguous_layout` + displacement).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ContiguousLayout {
    pub count: usize,
    pub displ: usize,
}

impl ContiguousLayout {
    pub fn new(count: usize) -> Self {
        ContiguousLayout { count, displ: 0 }
    }

    pub fn with_displacement(count: usize, displ: usize) -> Self {
        ContiguousLayout { count, displ }
    }
}

/// A per-peer collection of layouts (MPL's `layouts<T>`).
#[derive(Clone, Debug, Default)]
pub struct Layouts {
    inner: Vec<ContiguousLayout>,
}

impl Layouts {
    pub fn new() -> Self {
        Layouts { inner: Vec::new() }
    }

    pub fn push(&mut self, l: ContiguousLayout) {
        self.inner.push(l);
    }

    pub fn len(&self) -> usize {
        self.inner.len()
    }

    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    pub fn get(&self, i: usize) -> ContiguousLayout {
        self.inner[i]
    }

    /// Builds layouts from counts with prefix-sum displacements.
    pub fn from_counts(counts: &[usize]) -> Self {
        let mut displ = 0;
        let mut out = Layouts::new();
        for &c in counts {
            out.push(ContiguousLayout::with_displacement(c, displ));
            displ += c;
        }
        out
    }

    fn total_extent(&self) -> usize {
        self.inner
            .iter()
            .map(|l| l.displ + l.count)
            .max()
            .unwrap_or(0)
    }
}

/// MPL-style communicator wrapper.
pub struct MplComm<'a> {
    raw: &'a Comm,
}

impl<'a> MplComm<'a> {
    pub fn new(raw: &'a Comm) -> Self {
        MplComm { raw }
    }

    pub fn rank(&self) -> Rank {
        self.raw.rank()
    }

    pub fn size(&self) -> usize {
        self.raw.size()
    }

    /// `communicator::bcast` with a layout.
    pub fn bcast<T: Plain>(
        &self,
        root: Rank,
        data: &mut [T],
        layout: ContiguousLayout,
    ) -> Result<()> {
        self.raw
            .bcast_into(&mut data[layout.displ..layout.displ + layout.count], root)
    }

    /// `communicator::allgather` (fixed-size).
    pub fn allgather<T: Plain>(
        &self,
        send: &[T],
        send_layout: ContiguousLayout,
        recv: &mut [T],
    ) -> Result<()> {
        self.raw.allgather_into(
            &send[send_layout.displ..send_layout.displ + send_layout.count],
            recv,
        )
    }

    /// `communicator::allgatherv`: MPL does not forward counts and
    /// displacements to `MPI_Allgatherv`; each block travels as its own
    /// derived-datatype message through an alltoallw-equivalent dense
    /// exchange — `p-1` messages per rank per call.
    pub fn allgatherv<T: Plain>(
        &self,
        send: &[T],
        send_layout: ContiguousLayout,
        recv: &mut [T],
        recv_layouts: &Layouts,
    ) -> Result<()> {
        assert_eq!(
            recv_layouts.len(),
            self.size(),
            "one receive layout per rank"
        );
        assert!(
            recv_layouts.total_extent() <= recv.len(),
            "receive layouts exceed buffer"
        );
        let block = &send[send_layout.displ..send_layout.displ + send_layout.count];
        // alltoallw-equivalent: identical data to each peer, one message
        // per peer (this is the overhead the paper measures for MPL).
        let p = self.size();
        let send_counts = vec![block.len(); p];
        let send_displs = vec![0usize; p];
        let mut recv_counts = Vec::with_capacity(p);
        let mut recv_displs = Vec::with_capacity(p);
        for i in 0..p {
            let l = recv_layouts.get(i);
            recv_counts.push(l.count);
            recv_displs.push(l.displ);
        }
        let dup = send_buf_repeated(block, p);
        let sd: Vec<usize> = (0..p).map(|i| i * block.len()).collect();
        let _ = send_displs;
        self.raw
            .alltoallv_into(&dup, &send_counts, &sd, recv, &recv_counts, &recv_displs)
    }

    /// `communicator::alltoallv` with per-peer layouts; routed through
    /// the same alltoallw-style dense exchange.
    pub fn alltoallv<T: Plain>(
        &self,
        send: &[T],
        send_layouts: &Layouts,
        recv: &mut [T],
        recv_layouts: &Layouts,
    ) -> Result<()> {
        let p = self.size();
        assert_eq!(send_layouts.len(), p, "one send layout per rank");
        assert_eq!(recv_layouts.len(), p, "one receive layout per rank");
        let mut send_counts = Vec::with_capacity(p);
        let mut send_displs = Vec::with_capacity(p);
        let mut recv_counts = Vec::with_capacity(p);
        let mut recv_displs = Vec::with_capacity(p);
        for i in 0..p {
            let s = send_layouts.get(i);
            send_counts.push(s.count);
            send_displs.push(s.displ);
            let r = recv_layouts.get(i);
            recv_counts.push(r.count);
            recv_displs.push(r.displ);
        }
        // The layout indirection costs an extra pass and, in real MPL,
        // per-peer datatype construction; model the latter with a
        // per-peer commit step.
        for i in 0..p {
            std::hint::black_box(send_layouts.get(i));
            std::hint::black_box(recv_layouts.get(i));
        }
        self.raw.alltoallw_bytes(
            kmp_mpi::plain::as_bytes(send),
            &scale(&send_counts, std::mem::size_of::<T>()),
            &scale(&send_displs, std::mem::size_of::<T>()),
            kmp_mpi::plain::as_bytes_mut(recv),
            &scale(&recv_counts, std::mem::size_of::<T>()),
            &scale(&recv_displs, std::mem::size_of::<T>()),
        )
    }

    /// `communicator::allreduce`.
    pub fn allreduce<T: Plain, O: ReduceOp<T>>(
        &self,
        send: &[T],
        recv: &mut [T],
        op: O,
    ) -> Result<()> {
        self.raw.allreduce_into(send, recv, op)
    }
}

fn scale(v: &[usize], f: usize) -> Vec<usize> {
    v.iter().map(|&x| x * f).collect()
}

fn send_buf_repeated<T: Plain>(block: &[T], times: usize) -> Vec<T> {
    let mut out = Vec::with_capacity(block.len() * times);
    for _ in 0..times {
        out.extend_from_slice(block);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use kmp_mpi::Universe;

    #[test]
    fn layouts_from_counts() {
        let l = Layouts::from_counts(&[2, 0, 3]);
        assert_eq!(l.get(0), ContiguousLayout::with_displacement(2, 0));
        assert_eq!(l.get(1), ContiguousLayout::with_displacement(0, 2));
        assert_eq!(l.get(2), ContiguousLayout::with_displacement(3, 2));
    }

    #[test]
    fn bcast_with_layout() {
        Universe::run(3, |raw| {
            let comm = MplComm::new(&raw);
            let mut data = if comm.rank() == 0 {
                vec![7u32, 8]
            } else {
                vec![0, 0]
            };
            comm.bcast(0, &mut data, ContiguousLayout::new(2)).unwrap();
            assert_eq!(data, vec![7, 8]);
        });
    }

    #[test]
    fn allgatherv_with_layouts() {
        Universe::run(3, |raw| {
            let comm = MplComm::new(&raw);
            let mine = vec![comm.rank() as u16; comm.rank() + 1];
            let counts = [1usize, 2, 3];
            let layouts = Layouts::from_counts(&counts);
            let mut recv = vec![0u16; 6];
            comm.allgatherv(
                &mine,
                ContiguousLayout::new(mine.len()),
                &mut recv,
                &layouts,
            )
            .unwrap();
            assert_eq!(recv, vec![0, 1, 1, 2, 2, 2]);
        });
    }

    #[test]
    fn alltoallv_with_layouts() {
        Universe::run(2, |raw| {
            let comm = MplComm::new(&raw);
            let r = comm.rank() as u64;
            let send = vec![r * 10, r * 10 + 1];
            let send_layouts = Layouts::from_counts(&[1, 1]);
            let recv_layouts = Layouts::from_counts(&[1, 1]);
            let mut recv = vec![0u64; 2];
            comm.alltoallv(&send, &send_layouts, &mut recv, &recv_layouts)
                .unwrap();
            assert_eq!(recv, vec![comm.rank() as u64, 10 + comm.rank() as u64]);
        });
    }

    #[test]
    fn allreduce_with_op() {
        Universe::run(4, |raw| {
            let comm = MplComm::new(&raw);
            let mut out = vec![0u32];
            comm.allreduce(&[1u32], &mut out, kmp_mpi::op::Sum).unwrap();
            assert_eq!(out, vec![4]);
        });
    }
}
