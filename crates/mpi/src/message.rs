//! Message envelopes, matching selectors, and receive status.

use std::sync::Arc;

use bytes::Bytes;

use crate::plain::element_count;
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
    /// Raw payload bytes.
    pub payload: Bytes,
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
            arrival_ns: 0,
            ack: None,
        }
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
