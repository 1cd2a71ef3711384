//! Matching-order laws: the indexed two-queue engine
//! ([`kmp_mpi::mailbox::Mailbox`]) replayed against the seed's
//! linear-scan matcher ([`kmp_mpi::mailbox::reference::ScanMailbox`])
//! on randomized interleavings of pushes, specific and wildcard
//! receives, and probes. The single-FIFO scan is trivially correct for
//! MPI's matching laws — non-overtaking per `(source, tag)` and
//! arrival-order wildcard matching — so any divergence convicts the
//! index. Payloads carry a unique id, making "identical delivery
//! order" checkable message-by-message.

use bytes::Bytes;
use kmp_mpi::mailbox::{reference::ScanMailbox, Mailbox};
use kmp_mpi::message::{Envelope, Src, TagSel};
use proptest::prelude::*;

#[derive(Clone, Debug)]
enum Op {
    /// Deliver a message from `src` with `tag` on `context`.
    Push { src: usize, tag: i32, context: u64 },
    /// Receive with the given selectors.
    Match { src: Src, tag: TagSel, context: u64 },
    /// Probe with the given selectors.
    Peek { src: Src, tag: TagSel, context: u64 },
}

fn src_sel() -> impl Strategy<Value = Src> {
    prop_oneof![Just(Src::Any), (0usize..4).prop_map(Src::Rank),]
}

fn tag_sel() -> impl Strategy<Value = TagSel> {
    prop_oneof![Just(TagSel::Any), (-2i32..4).prop_map(TagSel::Is),]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        // Two push arms keep the mix push-heavy so queues build depth.
        (0usize..4, -2i32..4, 0u64..3).prop_map(|(src, tag, context)| Op::Push {
            src,
            tag,
            context
        }),
        (0usize..4, 0i32..4, 0u64..3).prop_map(|(src, tag, context)| Op::Push {
            src,
            tag,
            context
        }),
        (src_sel(), tag_sel(), 0u64..3).prop_map(|(src, tag, context)| Op::Match {
            src,
            tag,
            context
        }),
        (src_sel(), tag_sel(), 0u64..3).prop_map(|(src, tag, context)| Op::Peek {
            src,
            tag,
            context
        }),
    ]
}

fn env(src: usize, context: u64, tag: i32, id: u64) -> Envelope {
    Envelope {
        src,
        src_world: src,
        context,
        tag,
        payload: Bytes::from(id.to_le_bytes().to_vec()),
        more: None,
        arrival_ns: 0,
        ack: None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn engine_matches_linear_scan_oracle(ops in prop::collection::vec(op_strategy(), 0..120)) {
        let engine = Mailbox::new();
        let oracle = ScanMailbox::new();
        let mut next_id = 0u64;
        for op in &ops {
            match *op {
                Op::Push { src, tag, context } => {
                    engine.push(env(src, context, tag, next_id));
                    oracle.push(env(src, context, tag, next_id));
                    next_id += 1;
                }
                Op::Match { src, tag, context } => {
                    let a = engine.try_match(context, src, tag);
                    let b = oracle.try_match(context, src, tag);
                    match (&a, &b) {
                        (None, None) => {}
                        (Some(x), Some(y)) => {
                            // Identical delivery: same message, by id.
                            prop_assert_eq!(&x.payload[..], &y.payload[..]);
                            prop_assert_eq!(x.src, y.src);
                            prop_assert_eq!(x.tag, y.tag);
                        }
                        _ => prop_assert!(false,
                            "divergence on {:?}: engine {:?} vs oracle {:?}",
                            op, a.is_some(), b.is_some()),
                    }
                }
                Op::Peek { src, tag, context } => {
                    let a = engine.try_peek(context, src, tag);
                    let b = oracle.try_peek(context, src, tag);
                    prop_assert_eq!(a, b, "probe divergence on {:?}", op);
                }
            }
            prop_assert_eq!(engine.len(), oracle.len(), "queue depths diverged");
        }
        // Drain both fully with wildcards per context: the remaining
        // user-tag messages must come out in the same global order, and
        // the internal-tag residue must pop identically too.
        for context in 0..3 {
            loop {
                let a = engine.try_match(context, Src::Any, TagSel::Any);
                let b = oracle.try_match(context, Src::Any, TagSel::Any);
                match (a, b) {
                    (None, None) => break,
                    (Some(x), Some(y)) => prop_assert_eq!(&x.payload[..], &y.payload[..]),
                    (a, b) => prop_assert!(false,
                        "drain divergence: engine {:?} vs oracle {:?}", a.is_some(), b.is_some()),
                }
            }
            for tag in -2i32..0 {
                for src in 0usize..4 {
                    loop {
                        let a = engine.try_match(context, Src::Rank(src), TagSel::Is(tag));
                        let b = oracle.try_match(context, Src::Rank(src), TagSel::Is(tag));
                        match (a, b) {
                            (None, None) => break,
                            (Some(x), Some(y)) => {
                                prop_assert_eq!(&x.payload[..], &y.payload[..])
                            }
                            (a, b) => prop_assert!(false,
                                "internal-tag drain divergence: engine {:?} vs oracle {:?}",
                                a.is_some(), b.is_some()),
                        }
                    }
                }
            }
        }
        prop_assert!(engine.is_empty());
        prop_assert!(oracle.is_empty());
    }

    /// Non-overtaking, stated directly: for any burst of same-(source,
    /// tag) messages interleaved with others, a specific receive stream
    /// sees the burst in push order.
    #[test]
    fn non_overtaking_per_source_tag_under_noise(
        burst in 1usize..20,
        noise in prop::collection::vec((0usize..4, 0i32..4), 0..40)
    ) {
        let mb = Mailbox::new();
        let mut pushed = 0usize;
        let mut noise_iter = noise.iter();
        for i in 0..burst {
            // Interleave arbitrary noise between burst messages.
            if let Some(&(src, tag)) = noise_iter.next() {
                mb.push(env(src, 0, tag + 100, u64::MAX));
                pushed += 1;
            }
            mb.push(env(1, 0, 7, i as u64));
            pushed += 1;
        }
        for i in 0..burst {
            let e = mb.wait_match(0, Src::Rank(1), TagSel::Is(7), || None).unwrap();
            prop_assert_eq!(&e.payload[..], &(i as u64).to_le_bytes()[..]);
        }
        prop_assert_eq!(mb.len(), pushed - burst);
    }
}
