//! Compile-time error checking (§III-G of the paper).
//!
//! "Catching usage errors at compile time whenever possible … when the
//! user does not provide a required parameter to a collective operation,
//! the error message indicates which parameter is missing during compile
//! time." The doctests below are `compile_fail` tests: each snippet
//! **must not compile**, which `cargo test` verifies. The corresponding
//! `#[diagnostic::on_unimplemented]` attributes on the slot traits
//! provide the human-readable messages.
//!
//! ## Missing required parameter: `send_buf`
//!
//! An `allgatherv` without send data does not compile (the error names
//! the missing parameter):
//!
//! ```compile_fail
//! use kamping::prelude::*;
//! fn missing_send_buf(comm: &Communicator) {
//!     let _: Vec<u64> = comm.allgatherv((recv_counts_out(),)).unwrap();
//! }
//! ```
//!
//! ## Missing required parameter: `send_counts`
//!
//! `alltoallv` cannot infer how the send buffer splits across
//! destinations, so `send_counts` is required:
//!
//! ```compile_fail
//! use kamping::prelude::*;
//! fn missing_send_counts(comm: &Communicator, data: &Vec<u64>) {
//!     let _: Vec<u64> = comm.alltoallv(send_buf(data)).unwrap();
//! }
//! ```
//!
//! ## Missing required parameter: `send_counts` (neighborhood)
//!
//! The neighborhood builders enforce the same requirement over a
//! topology communicator:
//!
//! ```compile_fail
//! use kamping::prelude::*;
//! fn missing_neighbor_send_counts(
//!     g: &NeighborhoodCommunicator<kmp_mpi::DistGraphComm>,
//!     data: &Vec<u64>,
//! ) {
//!     let _: Vec<u64> = g.neighbor_alltoallv(send_buf(data)).unwrap();
//! }
//! ```
//!
//! ## Missing required parameter: `op`
//!
//! Reductions require the operation:
//!
//! ```compile_fail
//! use kamping::prelude::*;
//! fn missing_op(comm: &Communicator, data: &Vec<u64>) {
//!     let _: Vec<u64> = comm.allreduce(send_buf(data)).unwrap();
//! }
//! ```
//!
//! ## Duplicate parameters
//!
//! Passing `send_buf` twice is rejected at compile time (the slot is no
//! longer `Absent` after the first fold):
//!
//! ```compile_fail
//! use kamping::prelude::*;
//! fn duplicate_send_buf(comm: &Communicator, data: &Vec<u64>) {
//!     let _: Vec<u64> = comm.allgatherv((send_buf(data), send_buf(data))).unwrap();
//! }
//! ```
//!
//! ## Parameters ignored by in-place calls
//!
//! §III-G: "issues a compilation error if the user provides an argument
//! which would be ignored by the in-place call" — an in-place
//! `allgather` (via `send_recv_buf`) rejects an additional `send_buf`:
//!
//! ```compile_fail
//! use kamping::prelude::*;
//! fn in_place_with_send_buf(comm: &Communicator, data: &Vec<u64>) {
//!     let mut buf = data.clone();
//!     let _ = comm.allgather((send_recv_buf(&mut buf), send_buf(data))).unwrap();
//! }
//! ```
//!
//! ## Element type consistency
//!
//! Send data and provided receive storage must agree on the element
//! type:
//!
//! ```compile_fail
//! use kamping::prelude::*;
//! fn type_mismatch(comm: &Communicator, data: &Vec<u64>) {
//!     let mut out: Vec<u32> = Vec::new();
//!     comm.allgatherv((send_buf(data), recv_buf(&mut out).resize_to_fit())).unwrap();
//! }
//! ```
//!
//! ## Ownership of non-blocking buffers (§III-E)
//!
//! A buffer moved into `isend` is inaccessible until `wait()` returns
//! it — Rust's borrow checker enforces the paper's safety model:
//!
//! ```compile_fail
//! use kamping::prelude::*;
//! fn use_after_move(comm: &Communicator) {
//!     let v = vec![1u32, 2, 3];
//!     let req = comm.isend((send_buf(v), destination(1))).unwrap();
//!     let _len = v.len(); // ERROR: v was moved into the request
//!     let _v = req.wait().unwrap();
//! }
//! ```
//!
//! The same ownership rule covers non-blocking **collectives**: a buffer
//! moved into `iallgatherv` is gone until `wait()` hands it back:
//!
//! ```compile_fail
//! use kamping::prelude::*;
//! fn use_after_move_collective(comm: &Communicator) {
//!     let v = vec![1u32, 2, 3];
//!     let fut = comm.iallgatherv(send_buf(v)).unwrap();
//!     let _len = v.len(); // ERROR: v was moved into the future
//!     let _ = fut.wait().unwrap();
//! }
//! ```
//!
//! What `wait()` hands back is a handle onto the buffer (read it, or
//! `take()` the vector). It travels inside the future and is not
//! reachable before completion either:
//!
//! ```compile_fail
//! use kamping::prelude::*;
//! fn handle_before_completion(comm: &Communicator) {
//!     let fut = comm.iallgatherv(send_buf(vec![1u32])).unwrap();
//!     let _v = fut.hold.take(); // ERROR: the handle is private to the future
//!     let _ = fut.wait().unwrap();
//! }
//! ```
//!
//! The blocking reductions consume an owned `send_buf` the same way (it
//! becomes the accumulator), so it cannot be used afterwards:
//!
//! ```compile_fail
//! use kamping::prelude::*;
//! fn use_after_reduction(comm: &Communicator) {
//!     let v = vec![1u64, 2, 3];
//!     let _sum: Vec<u64> = comm.allreduce((send_buf(v), op(ops::Sum))).unwrap();
//!     let _len = v.len(); // ERROR: v was moved into the reduction
//! }
//! ```
//!
//! ## No in-flight access for `ibcast` (§III-E)
//!
//! `ibcast` refuses *borrowed* buffers: while the broadcast is in flight
//! nothing may read or write the buffer, which only ownership transfer
//! can guarantee — so `send_recv_buf(&mut v)` does not compile, only
//! `send_recv_buf(v)`:
//!
//! ```compile_fail
//! use kamping::prelude::*;
//! fn ibcast_borrowed(comm: &Communicator) {
//!     let mut v = vec![1u32, 2, 3];
//!     let _ = comm.ibcast((send_recv_buf(&mut v),)).unwrap();
//! }
//! ```
//!
//! `bcast_init` shares `ibcast`'s declaration, and with it the rule: the
//! root's buffer moves into the plan, so a borrowed one does not
//! compile either:
//!
//! ```compile_fail
//! use kamping::prelude::*;
//! fn bcast_init_borrowed(comm: &Communicator) {
//!     let mut v = vec![1u32, 2, 3];
//!     let _ = comm.bcast_init((send_recv_buf(&mut v),)).unwrap();
//! }
//! ```
//!
//! ## Packed counts for `alltoallv_init`
//!
//! `alltoallv_init` shares `ialltoallv`'s declaration but not its
//! `send_displs`: the plan freezes packed send counts, and `set_data`
//! refreshes a packed buffer:
//!
//! ```compile_fail
//! use kamping::prelude::*;
//! fn alltoallv_init_with_displs(comm: &Communicator, data: &Vec<u64>) {
//!     let (counts, displs) = (vec![1usize; 2], vec![0usize, 1]);
//!     let args = (send_buf(data), send_counts(&counts), send_displs(&displs));
//!     let _ = comm.alltoallv_init(args).unwrap();
//! }
//! ```
//!
//! ## Received data inaccessible before completion (§III-E)
//!
//! The result of a non-blocking collective is *produced by* `wait()`;
//! there is no receive buffer to peek at while it is in flight:
//!
//! ```compile_fail
//! use kamping::prelude::*;
//! fn peek_before_completion(comm: &Communicator) {
//!     let fut = comm.iallgatherv(send_buf(vec![1u32])).unwrap();
//!     let _n = fut.0.len(); // ERROR: no accessible data inside the future
//!     let _ = fut.wait().unwrap();
//! }
//! ```
//!
//! And the positive control — the same code *with* the parameter —
//! compiles:
//!
//! ```no_run
//! use kamping::prelude::*;
//! fn positive_control(comm: &Communicator, data: &Vec<u64>) {
//!     let _: Vec<u64> = comm.allgatherv(send_buf(data)).unwrap();
//! }
//! fn positive_control_neighborhood(
//!     g: &NeighborhoodCommunicator<kmp_mpi::DistGraphComm>,
//!     data: &Vec<u64>,
//!     counts: &Vec<usize>,
//! ) {
//!     let _: Vec<u64> = g
//!         .neighbor_alltoallv((send_buf(data), send_counts(counts)))
//!         .unwrap();
//!     let _: Vec<u64> = g.neighbor_allgatherv(send_buf(data)).unwrap();
//! }
//! ```
//!
//! Positive control for the non-blocking collectives (owned buffers move
//! through and come back) and for the owned reduction:
//!
//! ```no_run
//! use kamping::prelude::*;
//! fn positive_control_nonblocking(comm: &Communicator) {
//!     let fut = comm.iallgatherv(send_buf(vec![1u32])).unwrap();
//!     let (_all, mine) = fut.wait().unwrap();
//!     let _first = mine[0];
//!     let _mine: Vec<u32> = mine.take();
//!     let fut = comm.ibcast((send_recv_buf(vec![1u32]),)).unwrap();
//!     let _data = fut.wait().unwrap();
//!     let _sum: Vec<u32> = comm.allreduce((send_buf(vec![1u32]), op(ops::Sum))).unwrap();
//! }
//! ```
//!
//! Positive control for the persistent twins (owned buffers move into
//! the plan; `alltoallv_init` with packed counts):
//!
//! ```no_run
//! use kamping::prelude::*;
//! fn positive_control_persistent(comm: &Communicator, data: &Vec<u64>) {
//!     let _ = comm.bcast_init((send_recv_buf(vec![1u32]),)).unwrap();
//!     let _ = comm.allreduce_init((send_buf(data.clone()), op(ops::Sum))).unwrap();
//!     let counts = vec![1usize; 2];
//!     let _ = comm.alltoallv_init((send_buf(data), send_counts(&counts))).unwrap();
//! }
//! ```

// This module carries documentation tests only.
