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
//! the stack, `ireduce` resumes it on `test`/`wait`.

use std::borrow::Cow;

use bytes::Bytes;

use super::fold_bytes_right;
use crate::collectives::nonblocking::{message_completion, Rounds};
use crate::collectives::{bcast_children, bcast_parent, send_internal};
use crate::comm::Comm;
use crate::error::Result;
use crate::message::Parts;
use crate::op::ReduceOp;
use crate::plain::{bytes_from_cow, bytes_from_vec};
use crate::request::Completion;
use crate::{Plain, Rank, Tag};

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
    /// The root completes with its folded payload (`ireduce`); else it
    /// keeps it in `acc`, and every rank completes with
    /// [`Completion::Done`].
    deliver: bool,
}

impl<T: Plain, O: ReduceOp<T>> TreeReduce<T, O> {
    pub(crate) fn new(
        comm: &Comm,
        tag: Tag,
        own: Cow<'_, [T]>,
        op: O,
        root: Rank,
        deliver: bool,
    ) -> Self {
        let mut children: Vec<Rank> = bcast_children(comm, root).collect();
        children.reverse();
        let parent = (comm.rank() != root).then(|| bcast_parent(comm, root));
        // A leaf's contribution goes to the wire (an owned one
        // unserialized); elsewhere it becomes the accumulator (an owned
        // one as is).
        let (own, acc) = if children.is_empty() && parent.is_some() {
            (Some(bytes_from_cow(own)), None)
        } else {
            (None, Some(own.into_owned()))
        };
        TreeReduce {
            tag,
            root,
            op,
            children,
            parent,
            own,
            acc,
            deliver,
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
}

impl<T: Plain, O: ReduceOp<T>> Rounds for TreeReduce<T, O> {
    fn rounds(&self) -> usize {
        self.children.len()
    }

    fn peer(&self, _comm: &Comm, k: usize) -> (Rank, Tag) {
        (self.children[k], self.tag)
    }

    /// Every round only receives.
    fn post(&mut self, _comm: &Comm, _k: usize) -> Result<()> {
        Ok(())
    }

    fn absorb(&mut self, _comm: &Comm, _k: usize, theirs: Parts) -> Result<()> {
        let theirs = theirs.into_bytes();
        let acc = self.acc.as_mut().expect("a rank with children folds");
        fold_bytes_right(acc, &theirs, &self.op)
    }

    fn finish(&mut self, comm: &Comm) -> Result<Completion> {
        match self.parent {
            Some(parent) => send_internal(comm, parent, self.tag, self.take_payload())?,
            None if self.deliver => {
                return Ok(message_completion(self.root, self.tag, self.take_payload()));
            }
            None => {}
        }
        Ok(Completion::Done)
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
                    let tree = TreeReduce::new(&comm, tag, (&mine).into(), Sum, root, false);
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
