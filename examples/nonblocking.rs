//! The paper's Fig. 6: memory-safe non-blocking communication — the send
//! buffer is moved into the request and comes back with `wait()`;
//! received data is only accessible after completion.
//!
//! Fig. 6's `v = r1.wait()` reads `v = r1.wait()?.take()` here: the
//! transport aliases a moved-in vector instead of copying it, so `wait()`
//! returns a handle — free to read, free to drop — and `take()` turns it
//! into the vector: the original allocation once the receiver has
//! consumed the message, a copy before that.
//!
//! Run with: `cargo run --example nonblocking`

use kamping_repro::kamping::p2p::RequestPool;
use kamping_repro::kamping::prelude::*;
use kamping_repro::mpi::Universe;

fn main() {
    Universe::run(2, |comm| {
        let comm = Communicator::new(comm);
        if comm.rank() == 0 {
            // Fig. 6: the buffer is owned by the request while in flight.
            let v: Vec<i32> = (0..42).collect();
            let r1 = comm.isend((send_buf(v), destination(1))).unwrap();
            // `v` is inaccessible here — the compiler enforces §III-E.
            let handle = r1.wait().unwrap();
            assert_eq!(handle.len(), 42); // reading the buffer is free
            let v: Vec<i32> = handle.take(); // moved back to the caller
            assert_eq!(v[41], 41);

            // Request pools: fire-and-collect.
            let mut pool = RequestPool::new();
            for _ in 0..10 {
                pool.submit_send(comm.isend((send_buf(vec![7u8]), destination(1))).unwrap());
            }
            pool.wait_all().unwrap();
            println!("rank 0: moved buffer returned after wait(), pool drained");
        } else {
            let r2 = comm.irecv::<i32, _>(recv_count(42)).unwrap();
            let data = r2.wait().unwrap(); // data only exists after completion
            assert_eq!(data, (0..42).collect::<Vec<_>>());
            for _ in 0..10 {
                let _: Vec<u8> = comm.recv((source(0),)).unwrap();
            }
            println!("rank 1: received {} values", data.len());
        }
    });
}
