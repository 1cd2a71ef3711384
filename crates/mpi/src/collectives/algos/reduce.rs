//! Binomial-tree reduction with in-place folds.
//!
//! A child's delivered payload folds straight into the accumulator
//! ([`fold_bytes_right`]) instead of being materialized first, and the
//! folded subtree moves into the message towards the parent: a pure
//! leaf pays one serialization (`s`), every other rank seeds its
//! accumulator from its own contribution once and copies nothing else.
//!
//! The tree is written once, as the round description ([`Rounds`]) the
//! shared driver runs: the blocking `reduce` drives it to completion on
//! the stack, `ireduce` and the tree phase of `iallreduce` resume it on
//! `test`/`wait`.

use std::borrow::Cow;

use bytes::Bytes;

use super::fold_bytes_right;
use crate::collectives::nonblocking::{message_completion, Rounds};
use crate::collectives::{bcast_children, bcast_forward, bcast_parent, send_internal};
use crate::comm::Comm;
use crate::error::Result;
use crate::op::ReduceOp;
use crate::plain::{bytes_from_cow, bytes_from_vec, bytes_into_vec};
use crate::request::Completion;
use crate::{Plain, Rank, Tag};

/// A rank's contribution as its caller holds it: typed data, borrowed
/// or owned (blocking `reduce`, `ireduce`), or an adopted payload
/// (`iallreduce_bytes`).
pub(crate) enum Own<'a, T: Plain> {
    Data(Cow<'a, [T]>),
    Payload(Bytes),
}

/// What a [`TreeReduce`] does once its subtree is folded.
pub(crate) enum AfterTreeReduce {
    /// Forward to the parent and complete with [`Completion::Done`]; a
    /// root keeps its accumulator in [`TreeReduce::acc`] (blocking
    /// `reduce` on every rank, `ireduce` non-roots).
    Done,
    /// `ireduce` root: complete with the folded payload.
    Complete,
    /// `iallreduce` rank 0: forward the result down the binomial
    /// broadcast tree on this tag, then complete with it.
    BcastSend(Tag),
    /// `iallreduce` elsewhere: forward to the parent, then one more
    /// round receives (and forwards) the broadcast result on this tag.
    BcastRecv(Tag),
}

/// Binomial-tree reduction over virtual ranks (commutative operations
/// only: the tree combines blocks out of rank order): round `k` folds
/// child `k`'s subtree into the accumulator in place. The contribution
/// is typed, so it is fixed at construction instead of at `seed`: that
/// is what lets a leaf serialize once and every other rank fold into
/// its own accumulator without materializing it twice.
pub(crate) struct TreeReduce<T: Plain, O: ReduceOp<T>> {
    tag: Tag,
    root: Rank,
    op: O,
    /// Children in receive order: [`bcast_children`] reversed, smallest
    /// subtree first.
    children: Vec<Rank>,
    parent: Option<Rank>,
    /// A rank with nothing to fold forwards its contribution untouched.
    own: Option<Bytes>,
    pub(crate) acc: Option<Vec<T>>,
    after: AfterTreeReduce,
    /// The broadcast result of [`AfterTreeReduce::BcastRecv`].
    result: Option<Bytes>,
}

impl<T: Plain, O: ReduceOp<T>> TreeReduce<T, O> {
    pub(crate) fn new(
        comm: &Comm,
        tag: Tag,
        own: Own<'_, T>,
        op: O,
        root: Rank,
        after: AfterTreeReduce,
    ) -> Self {
        let mut children: Vec<Rank> = bcast_children(comm, root).collect();
        children.reverse();
        let parent = (comm.rank() != root).then(|| bcast_parent(comm, root));
        let (own, acc) = match own {
            // A leaf's contribution goes to the wire (an owned one
            // unserialized); elsewhere it becomes the accumulator
            // (an owned one as is).
            Own::Data(d) if children.is_empty() && parent.is_some() => {
                (Some(bytes_from_cow(d)), None)
            }
            Own::Data(d) => (None, Some(d.into_owned())),
            Own::Payload(b) if children.is_empty() => (Some(b), None),
            Own::Payload(b) => (None, Some(bytes_into_vec(b))),
        };
        TreeReduce {
            tag,
            root,
            op,
            children,
            parent,
            own,
            acc,
            after,
            result: None,
        }
    }

    /// The folded subtree as a payload: the accumulator moves in
    /// without a serialization copy, an unfolded contribution moves out
    /// untouched.
    fn take_payload(&mut self) -> Bytes {
        match self.acc.take() {
            Some(acc) => bytes_from_vec(acc),
            None => self.own.take().expect("payload taken once"),
        }
    }

    fn send_up(&mut self, comm: &Comm) -> Result<()> {
        match self.parent {
            Some(parent) => send_internal(comm, parent, self.tag, self.take_payload()),
            None => Ok(()),
        }
    }
}

impl<T: Plain, O: ReduceOp<T>> Rounds for TreeReduce<T, O> {
    fn rounds(&self) -> usize {
        self.children.len() + usize::from(matches!(self.after, AfterTreeReduce::BcastRecv(_)))
    }

    fn peer(&self, comm: &Comm, k: usize) -> (Rank, Tag) {
        match (self.children.get(k), &self.after) {
            (Some(&child), _) => (child, self.tag),
            (None, AfterTreeReduce::BcastRecv(bcast_tag)) => (bcast_parent(comm, 0), *bcast_tag),
            (None, _) => unreachable!("only the broadcast round follows the children"),
        }
    }

    fn post(&mut self, comm: &Comm, k: usize) -> Result<()> {
        // Rounds below `children.len()` only receive; the broadcast
        // round is preceded by this subtree's result going up.
        if k == self.children.len() {
            self.send_up(comm)?;
        }
        Ok(())
    }

    fn absorb(&mut self, comm: &Comm, k: usize, theirs: Bytes) -> Result<()> {
        if k < self.children.len() {
            let acc = self.acc.as_mut().expect("a rank with children folds");
            return fold_bytes_right(acc, &theirs, &self.op);
        }
        let (_, bcast_tag) = self.peer(comm, k);
        bcast_forward(comm, 0, bcast_tag, &theirs)?;
        self.result = Some(theirs);
        Ok(())
    }

    fn finish(&mut self, comm: &Comm) -> Result<Completion> {
        match self.after {
            AfterTreeReduce::Done => {
                self.send_up(comm)?;
                Ok(Completion::Done)
            }
            AfterTreeReduce::Complete => {
                Ok(message_completion(self.root, self.tag, self.take_payload()))
            }
            AfterTreeReduce::BcastSend(bcast_tag) => {
                let payload = self.take_payload();
                bcast_forward(comm, 0, bcast_tag, &payload)?;
                Ok(message_completion(0, bcast_tag, payload))
            }
            AfterTreeReduce::BcastRecv(bcast_tag) => {
                let result = self.result.take().expect("broadcast round absorbed");
                Ok(message_completion(0, bcast_tag, result))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collectives::nonblocking::{drive, RoundEngine};
    use crate::op::Sum;
    use crate::Universe;

    #[test]
    fn inplace_reduce_sums_to_any_root() {
        for p in [1, 2, 3, 5, 8] {
            for root in [0, p - 1] {
                Universe::run(p, move |comm| {
                    let tag = comm.next_internal_tag();
                    let mine = [comm.rank() as u64 + 1, 1];
                    let after = AfterTreeReduce::Done;
                    let tree =
                        TreeReduce::new(&comm, tag, Own::Data((&mine).into()), Sum, root, after);
                    let mut engine = RoundEngine::new(tree);
                    drive(&comm, &mut engine, Bytes::new()).unwrap();
                    let tree = engine.algo;
                    if comm.rank() == root {
                        let total = (p * (p + 1) / 2) as u64;
                        assert_eq!(tree.acc.unwrap(), vec![total, p as u64]);
                    } else {
                        assert!(tree.acc.is_none());
                    }
                });
            }
        }
    }
}
