//! Message envelopes, matching selectors, and receive status.

use std::ops::Range;
use std::sync::Arc;

use bytes::Bytes;

use crate::plain::{bytes_from_vec, element_count, extend_vec_from_bytes, vec_with_capacity};
use crate::{Plain, Rank, Tag};

/// Wildcard source selector (mirrors `MPI_ANY_SOURCE`).
pub const ANY_SOURCE: Src = Src::Any;
/// Wildcard tag selector (mirrors `MPI_ANY_TAG`).
pub const ANY_TAG: TagSel = TagSel::Any;

/// Source selector for receives and probes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Src {
    /// Match messages from any rank.
    Any,
    /// Match messages from this communicator rank only.
    Rank(Rank),
}

impl Src {
    /// True if this selector admits messages from `rank`. Shared by
    /// envelope matching and the matching engine's queue index.
    #[inline]
    pub fn admits(&self, rank: Rank) -> bool {
        match self {
            Src::Any => true,
            Src::Rank(r) => *r == rank,
        }
    }
}

impl From<Rank> for Src {
    fn from(r: Rank) -> Self {
        Src::Rank(r)
    }
}

/// Tag selector for receives and probes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TagSel {
    /// Match any tag.
    Any,
    /// Match this tag only.
    Is(Tag),
}

impl TagSel {
    /// True if this selector admits tag `tag`. The wildcard only sees
    /// user messages: internal collective protocol messages carry
    /// negative tags and must never match an application's wildcard
    /// receive.
    #[inline]
    pub fn admits(&self, tag: Tag) -> bool {
        match self {
            TagSel::Any => tag >= 0,
            TagSel::Is(t) => *t == tag,
        }
    }
}

impl From<Tag> for TagSel {
    fn from(t: Tag) -> Self {
        TagSel::Is(t)
    }
}

/// Completion slot used by synchronous-mode sends (`issend`): the send
/// completes only once the receiver has matched the message.
///
/// An ack is one of the sources a parked completion waiter
/// ([`crate::completion`]) can register against: the receiver's match
/// claims the registered waiter with a targeted wakeup, so a blocked
/// `issend` costs nothing until the exact match it needs occurs.
#[derive(Debug, Default)]
pub struct AckSlot {
    state: parking_lot::Mutex<AckState>,
}

#[derive(Default)]
struct AckState {
    done: bool,
    /// A parked completion waiter awaiting this ack, with its source
    /// index (at most one: a request has one owner thread).
    watcher: Option<(Arc<crate::completion::Waiter>, usize)>,
}

impl std::fmt::Debug for AckState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AckState")
            .field("done", &self.done)
            .field("watched", &self.watcher.is_some())
            .finish()
    }
}

impl AckSlot {
    pub fn new() -> Arc<Self> {
        Arc::new(AckSlot::default())
    }

    /// Called by the receiver when the message is matched. Claims and
    /// wakes a registered completion waiter, if any.
    pub fn complete(&self) {
        let mut st = self.state.lock();
        st.done = true;
        let watcher = st.watcher.take();
        drop(st);
        if let Some((waiter, slot)) = watcher {
            waiter.claim(slot);
        }
    }

    /// Non-blocking completion check.
    pub fn is_complete(&self) -> bool {
        self.state.lock().done
    }

    /// Registers a completion waiter to be claimed when the ack fires.
    /// Returns `true` — without registering — if the ack already fired
    /// (checked under the same lock `complete` takes, so no completion
    /// can fall between the check and the registration).
    pub(crate) fn register_notify(
        &self,
        waiter: &Arc<crate::completion::Waiter>,
        slot: usize,
    ) -> bool {
        let mut st = self.state.lock();
        if st.done {
            return true;
        }
        st.watcher = Some((Arc::clone(waiter), slot));
        false
    }

    /// Removes a registered completion waiter (no-op if `complete`
    /// already took it — the claim it delivered stands).
    pub(crate) fn deregister_notify(&self, waiter: &Arc<crate::completion::Waiter>) {
        let mut st = self.state.lock();
        if let Some((w, _)) = &st.watcher {
            if Arc::ptr_eq(w, waiter) {
                st.watcher = None;
            }
        }
    }
}

/// The bytes of one message as an ordered list of parts: `head`, then
/// each of `tail`. However many parts it has, a message is matched,
/// charged and reported as one — one startup, `beta` times its total
/// bytes, one arrival stamp, [`Status::bytes`] the total — so an engine
/// can forward the blocks it holds by refcount where it would otherwise
/// pack them into one buffer. Only internal (negative) tags carry more
/// than one part: an engine sends them to its own peer engines, and
/// every user-visible payload is one contiguous buffer. A one-part
/// message has an empty `tail`, which owns no allocation.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct Parts {
    head: Bytes,
    tail: Vec<Bytes>,
}

impl From<Bytes> for Parts {
    #[inline]
    fn from(head: Bytes) -> Self {
        Parts {
            head,
            tail: Vec::new(),
        }
    }
}

impl IntoIterator for Parts {
    type Item = Bytes;
    type IntoIter = std::iter::Chain<std::iter::Once<Bytes>, std::vec::IntoIter<Bytes>>;

    /// The parts in order, by value.
    fn into_iter(self) -> Self::IntoIter {
        std::iter::once(self.head).chain(self.tail)
    }
}

impl Parts {
    /// The message of `parts` in order (none is the empty message).
    /// `tail` is allocated once, at the most parts the iterator can
    /// still yield, when that is not zero: a one-part message allocates
    /// nothing.
    pub(crate) fn of(parts: impl IntoIterator<Item = Bytes>) -> Self {
        let mut parts = parts.into_iter();
        let head = parts.next().unwrap_or_default();
        let (least, most) = parts.size_hint();
        let mut tail = Vec::new();
        if most != Some(0) {
            tail.reserve_exact(most.unwrap_or(least));
            tail.extend(parts);
        }
        Parts { head, tail }
    }

    /// The first part and the rest, as an [`Envelope`] holds them (the
    /// rest boxed, in place where [`of`](Self::of) sized it exactly).
    #[inline]
    pub(crate) fn split(self) -> (Bytes, Option<Box<[Bytes]>>) {
        let more = (!self.tail.is_empty()).then(|| self.tail.into_boxed_slice());
        (self.head, more)
    }

    /// The message an [`Envelope`] holds as `payload` and `more`.
    #[inline]
    fn joined(head: Bytes, more: Option<Box<[Bytes]>>) -> Self {
        let tail = more.map_or_else(Vec::new, Vec::from);
        Parts { head, tail }
    }

    /// Total bytes over every part.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.head.len() + self.tail.iter().map(Bytes::len).sum::<usize>()
    }

    /// The parts in order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &Bytes> {
        std::iter::once(&self.head).chain(&self.tail)
    }

    /// The message as one contiguous buffer: a one-part message as it
    /// is, several parts joined (one counted copy — only a message an
    /// engine did not expect in parts pays it).
    #[inline]
    pub(crate) fn into_bytes(self) -> Bytes {
        if self.tail.is_empty() {
            return self.head;
        }
        self.join(0..self.len())
    }

    /// A cursor that carves the message front to back: each
    /// [`Cursor::take`] picks up where the last one ended.
    #[inline]
    pub(crate) fn cursor(&self) -> Cursor<'_> {
        Cursor {
            parts: self,
            part: 0,
            base: 0,
            at: 0,
        }
    }

    /// Part `i` (`0` is `head`), if the message has that many.
    #[inline]
    fn part(&self, i: usize) -> Option<&Bytes> {
        match i {
            0 => Some(&self.head),
            i => self.tail.get(i - 1),
        }
    }

    /// Bytes `range` of the message, copied into one fresh buffer.
    fn join(&self, range: Range<usize>) -> Bytes {
        let total = self.len();
        assert!(
            range.start <= range.end && range.end <= total,
            "range {range:?} out of bounds for a message of {total} bytes"
        );
        let mut joined: Vec<u8> = vec_with_capacity(range.len());
        let mut at = 0;
        for part in self.iter() {
            let end = at + part.len();
            let (from, to) = (range.start.max(at), range.end.min(end));
            if from < to {
                extend_vec_from_bytes(&mut joined, &part[from - at..to - at]);
            }
            at = end;
        }
        bytes_from_vec(joined)
    }

    /// Keeps only the first `n` bytes (all of them when `n` is larger):
    /// the part that `n` falls inside is cut, the parts after it go.
    pub(crate) fn truncate(&mut self, n: usize) {
        if n <= self.head.len() {
            self.head = self.head.slice(..n);
            self.tail.clear();
            return;
        }
        let mut left = n - self.head.len();
        for (i, part) in self.tail.iter_mut().enumerate() {
            if left <= part.len() {
                *part = part.slice(..left);
                self.tail.truncate(i + 1);
                return;
            }
            left -= part.len();
        }
    }
}

/// Carves a [`Parts`] front to back ([`Parts::cursor`]). It remembers
/// the part it stands in, so carving a message of `n` parts into
/// consecutive blocks visits each part once, not `n` times.
pub(crate) struct Cursor<'a> {
    parts: &'a Parts,
    /// The part the cursor stands in, and the message offset it starts at.
    part: usize,
    base: usize,
    /// The message offset of the next byte to take.
    at: usize,
}

impl Cursor<'_> {
    /// The next `len` bytes of the message: a refcount view where they
    /// lie within one part (always, for a block an engine sent as its
    /// own part), else those bytes joined into one buffer.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `len` bytes are left.
    pub(crate) fn take(&mut self, len: usize) -> Bytes {
        let range = self.at..self.at + len;
        self.at = range.end;
        let mut part = self
            .parts
            .part(self.part)
            .expect("a cursor stands in a part");
        // Step past the parts that end at or before the range's start.
        while self.base + part.len() <= range.start {
            let Some(next) = self.parts.part(self.part + 1) else {
                break;
            };
            self.base += part.len();
            self.part += 1;
            part = next;
        }
        if range.end <= self.base + part.len() {
            return part.slice(range.start - self.base..range.end - self.base);
        }
        self.parts.join(range)
    }
}

/// A message in flight: payload plus matching metadata.
#[derive(Clone, Debug)]
pub struct Envelope {
    /// Sender's rank in the communicator the message was sent on.
    pub src: Rank,
    /// Sender's world rank (used for failure attribution).
    pub src_world: Rank,
    /// Context id of the communicator.
    pub context: u64,
    /// Message tag.
    pub tag: Tag,
    /// Raw payload bytes: the whole payload of every message on a user
    /// tag, the first part of a message an engine sent in parts.
    pub payload: Bytes,
    /// The parts after `payload`, in order: `None` but on internal
    /// (negative) tags, where an engine forwards blocks it holds without
    /// packing them (see [`Envelope::len`]). Boxed, so that a one-part
    /// envelope (all but a few) grows by two words, not three: the
    /// envelope's width shows in the time of small sends and receives.
    pub more: Option<Box<[Bytes]>>,
    /// Virtual-time arrival stamp (see [`crate::clock`]).
    pub arrival_ns: u64,
    /// Present for synchronous-mode sends; completed on match.
    pub ack: Option<Arc<AckSlot>>,
}

impl Envelope {
    /// True if this envelope matches the given context/source/tag triple.
    #[inline]
    pub fn matches(&self, context: u64, src: Src, tag: TagSel) -> bool {
        self.context == context && src.admits(self.src) && tag.admits(self.tag)
    }

    /// Total payload bytes, over every part: what the message is
    /// charged and reported as.
    #[inline]
    pub fn len(&self) -> usize {
        match &self.more {
            None => self.payload.len(),
            Some(more) => self.payload.len() + more.iter().map(Bytes::len).sum::<usize>(),
        }
    }

    /// True if the message carries no payload bytes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The payload, every part in order.
    #[inline]
    pub(crate) fn into_parts(self) -> Parts {
        Parts::joined(self.payload, self.more)
    }

    /// Keeps only the payload's first `n` bytes (a message cut short
    /// in flight): the part `n` falls inside is cut, later ones go.
    pub(crate) fn truncate(&mut self, n: usize) {
        let mut parts = Parts::joined(std::mem::take(&mut self.payload), self.more.take());
        parts.truncate(n);
        (self.payload, self.more) = parts.split();
    }
}

/// The result of a completed receive or probe
/// (mirrors `MPI_Status`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Status {
    /// Communicator rank of the sender.
    pub source: Rank,
    /// Tag of the matched message.
    pub tag: Tag,
    /// Payload size in bytes.
    pub bytes: usize,
}

impl Status {
    /// Number of `T` elements in the message
    /// (mirrors `MPI_Get_count`).
    pub fn count<T: Plain>(&self) -> usize {
        element_count::<T>(self.bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(src: Rank, context: u64, tag: Tag) -> Envelope {
        Envelope {
            src,
            src_world: src,
            context,
            tag,
            payload: Bytes::new(),
            more: None,
            arrival_ns: 0,
            ack: None,
        }
    }

    /// `[0, 1, 2] [3, 4] [] [5]`: four parts, one of them empty.
    fn parts() -> Parts {
        let part = |b: &[u8]| Bytes::from(b.to_vec());
        Parts::of([part(&[0, 1, 2]), part(&[3, 4]), Bytes::new(), part(&[5])])
    }

    #[test]
    fn parts_are_one_message_of_their_total_bytes() {
        let msg = parts();
        assert_eq!(msg.len(), 6);
        assert_eq!(msg.iter().count(), 4);
        let one = Parts::of([Bytes::from(vec![7u8])]);
        assert!(
            one.tail.capacity() == 0,
            "a one-part message allocates no tail"
        );
        let before = crate::metrics::snapshot();
        assert_eq!(&one.into_bytes()[..], &[7]);
        assert_eq!(&msg.clone().into_bytes()[..], &[0, 1, 2, 3, 4, 5]);
        let joined = crate::metrics::snapshot().since(&before).bytes_copied;
        assert_eq!(joined, 6, "only the many-part join copies");
        assert_eq!(Parts::of(std::iter::empty()), Parts::default());
    }

    #[test]
    fn a_cursor_takes_views_within_one_part_and_joins_across_parts() {
        let msg = parts();
        let before = crate::metrics::snapshot();
        let mut blocks = msg.cursor();
        assert_eq!(&blocks.take(3)[..], &[0, 1, 2]);
        assert_eq!(&blocks.take(2)[..], &[3, 4]);
        assert!(blocks.take(0).is_empty());
        assert_eq!(&blocks.take(1)[..], &[5]);
        assert!(blocks.take(0).is_empty());
        let mut bytes = msg.cursor();
        assert_eq!(&bytes.take(1)[..], &[0]);
        assert_eq!(&bytes.take(1)[..], &[1]);
        let views = crate::metrics::snapshot().since(&before);
        assert_eq!(
            views.bytes_copied, 0,
            "a block sent as its own part is a view"
        );
        assert_eq!(&bytes.take(4)[..], &[2, 3, 4, 5]);
        let joined = crate::metrics::snapshot().since(&before).bytes_copied;
        assert_eq!(joined, 4);
    }

    #[test]
    fn truncation_cuts_the_part_it_falls_inside() {
        let cut = |n: usize| {
            let mut env = env(0, 0, -1);
            (env.payload, env.more) = parts().split();
            env.truncate(n);
            assert_eq!(env.len(), n.min(6));
            let bytes: Vec<u8> = env.into_parts().iter().flat_map(|p| p.to_vec()).collect();
            assert_eq!(bytes, (0..n.min(6) as u8).collect::<Vec<_>>(), "cut at {n}");
        };
        (0..=7).for_each(cut);
        let mut msg = parts();
        msg.truncate(4);
        assert_eq!(msg.iter().count(), 2, "the parts after the cut go");
    }

    #[test]
    fn matching_rules() {
        let e = env(2, 7, 5);
        assert!(e.matches(7, Src::Any, TagSel::Any));
        assert!(e.matches(7, Src::Rank(2), TagSel::Is(5)));
        assert!(!e.matches(8, Src::Any, TagSel::Any)); // wrong context
        assert!(!e.matches(7, Src::Rank(1), TagSel::Any)); // wrong source
        assert!(!e.matches(7, Src::Any, TagSel::Is(6))); // wrong tag
    }

    #[test]
    fn wildcard_ignores_internal_tags() {
        let e = env(0, 7, -3);
        assert!(!e.matches(7, Src::Any, TagSel::Any));
        assert!(e.matches(7, Src::Any, TagSel::Is(-3)));
    }

    #[test]
    fn status_count() {
        let s = Status {
            source: 0,
            tag: 0,
            bytes: 24,
        };
        assert_eq!(s.count::<u64>(), 3);
        assert_eq!(s.count::<u8>(), 24);
    }

    #[test]
    fn ack_slot_completion() {
        let ack = AckSlot::new();
        assert!(!ack.is_complete());
        ack.complete();
        assert!(ack.is_complete());
        // A waiter registering after completion is told so, not parked.
        let waiter = Arc::new(crate::completion::Waiter::default());
        assert!(ack.register_notify(&waiter, 0));
    }

    #[test]
    fn ack_slot_cross_thread() {
        // The receiver's match on another thread claims the waiter
        // parked on the ack, naming its registered slot.
        let (ack, mb) = (AckSlot::new(), crate::mailbox::Mailbox::new());
        let waiter = Arc::new(crate::completion::Waiter::default());
        assert!(!ack.register_notify(&waiter, 3));
        let a2 = ack.clone();
        let h = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(5));
            a2.complete();
        });
        assert_eq!(waiter.park(&mb, mb.epoch()).fired, Some(3));
        h.join().unwrap();
        assert!(ack.is_complete());
    }

    #[test]
    fn selector_admission() {
        assert!(Src::Any.admits(3));
        assert!(Src::Rank(3).admits(3));
        assert!(!Src::Rank(3).admits(4));
        assert!(TagSel::Any.admits(0));
        assert!(!TagSel::Any.admits(-2), "wildcards never see internal tags");
        assert!(TagSel::Is(-2).admits(-2));
        assert!(!TagSel::Is(5).admits(6));
    }

    #[test]
    fn selector_conversions() {
        assert_eq!(Src::from(3), Src::Rank(3));
        assert_eq!(TagSel::from(9), TagSel::Is(9));
    }
}
