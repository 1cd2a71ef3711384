//! Blocking point-to-point communication and probes.

use bytes::Bytes;

use crate::comm::Comm;
use crate::error::{MpiError, Result};
use crate::message::{Src, Status, TagSel};
use crate::plain::{
    bytes_from_slice, bytes_from_vec, bytes_into_vec, copy_bytes_into, whole_elements,
};
use crate::{Plain, Rank, Tag};

/// The one checked placement of a received message (`recv_into`,
/// `sendrecv`, the blocking scatters): `bytes` lands in the prefix of
/// `dst` and the element count is returned. A message that is not whole
/// elements, or does not fit, is the sender's doing and reports
/// [`MpiError::Truncated`] — never the copy helper's panic.
pub(crate) fn place_message<T: Plain>(bytes: &[u8], dst: &mut [T]) -> Result<usize> {
    if whole_elements::<T>(bytes.len())? > dst.len() {
        return Err(MpiError::Truncated {
            message_bytes: bytes.len(),
            buffer_bytes: std::mem::size_of_val(dst),
        });
    }
    Ok(copy_bytes_into(bytes, dst))
}

impl Comm {
    /// Sends a typed slice (mirrors `MPI_Send`). The transport is an eager
    /// protocol: the call buffers the payload and returns immediately.
    pub fn send<T: Plain>(&self, data: &[T], dest: Rank, tag: Tag) -> Result<()> {
        self.count_op("send");
        self.check_tag(tag)?;
        self.deliver_bytes(dest, tag, bytes_from_slice(data), None)
    }

    /// Sends an owned vector, **moving** it into the transport without
    /// copying (the zero-copy owned send path): the allocation itself
    /// becomes the in-flight payload.
    pub fn send_vec<T: Plain>(&self, data: Vec<T>, dest: Rank, tag: Tag) -> Result<()> {
        self.count_op("send");
        self.check_tag(tag)?;
        self.deliver_bytes(dest, tag, bytes_from_vec(data), None)
    }

    /// Sends a single value.
    pub fn send_one<T: Plain>(&self, value: T, dest: Rank, tag: Tag) -> Result<()> {
        self.send(std::slice::from_ref(&value), dest, tag)
    }

    /// Sends raw bytes (used by the serialization layer).
    pub fn send_bytes(&self, data: &[u8], dest: Rank, tag: Tag) -> Result<()> {
        self.count_op("send");
        self.check_tag(tag)?;
        self.deliver_bytes(dest, tag, bytes_from_slice(data), None)
    }

    /// Receives into a caller-provided buffer (mirrors `MPI_Recv`).
    /// Errors with [`MpiError::Truncated`] if the matched message does not
    /// fit; like MPI, the message is consumed either way.
    pub fn recv_into<T: Plain>(
        &self,
        buf: &mut [T],
        src: impl Into<Src>,
        tag: impl Into<TagSel>,
    ) -> Result<Status> {
        self.count_op("recv");
        let env = self.recv_envelope(src.into(), tag.into())?;
        let status = Status {
            source: env.src,
            tag: env.tag,
            bytes: env.payload.len(),
        };
        place_message(&env.payload, buf)?;
        Ok(status)
    }

    /// Receives a message of unknown length into a fresh vector.
    pub fn recv_vec<T: Plain>(
        &self,
        src: impl Into<Src>,
        tag: impl Into<TagSel>,
    ) -> Result<(Vec<T>, Status)> {
        self.count_op("recv");
        let env = self.recv_envelope(src.into(), tag.into())?;
        let status = Status {
            source: env.src,
            tag: env.tag,
            bytes: env.payload.len(),
        };
        Ok((bytes_into_vec(env.payload), status))
    }

    /// Receives a single value.
    pub fn recv_one<T: Plain>(
        &self,
        src: impl Into<Src>,
        tag: impl Into<TagSel>,
    ) -> Result<(T, Status)> {
        let (v, status) = self.recv_vec::<T>(src, tag)?;
        if v.len() != 1 {
            return Err(MpiError::Truncated {
                message_bytes: status.bytes,
                buffer_bytes: std::mem::size_of::<T>(),
            });
        }
        Ok((v[0], status))
    }

    /// Receives raw bytes (used by the serialization layer).
    pub fn recv_bytes(
        &self,
        src: impl Into<Src>,
        tag: impl Into<TagSel>,
    ) -> Result<(Bytes, Status)> {
        self.count_op("recv");
        let env = self.recv_envelope(src.into(), tag.into())?;
        let status = Status {
            source: env.src,
            tag: env.tag,
            bytes: env.payload.len(),
        };
        Ok((env.payload, status))
    }

    /// Combined send and receive (mirrors `MPI_Sendrecv`). Deadlock-free
    /// under the eager transport: the send buffers immediately.
    #[allow(clippy::too_many_arguments)]
    pub fn sendrecv<T: Plain, U: Plain>(
        &self,
        send_data: &[T],
        dest: Rank,
        send_tag: Tag,
        recv_buf: &mut [U],
        src: impl Into<Src>,
        recv_tag: impl Into<TagSel>,
    ) -> Result<Status> {
        self.count_op("sendrecv");
        self.check_tag(send_tag)?;
        self.deliver_bytes(dest, send_tag, bytes_from_slice(send_data), None)?;
        let env = self.recv_envelope(src.into(), recv_tag.into())?;
        let status = Status {
            source: env.src,
            tag: env.tag,
            bytes: env.payload.len(),
        };
        place_message(&env.payload, recv_buf)?;
        Ok(status)
    }

    /// Blocks until a matching message is available and returns its status
    /// without consuming it (mirrors `MPI_Probe`).
    pub fn probe(&self, src: impl Into<Src>, tag: impl Into<TagSel>) -> Result<Status> {
        self.count_op("probe");
        self.peek_envelope(src.into(), tag.into())
    }

    /// Non-blocking probe (mirrors `MPI_Iprobe`).
    pub fn iprobe(&self, src: impl Into<Src>, tag: impl Into<TagSel>) -> Option<Status> {
        self.count_op("iprobe");
        self.try_peek_envelope(src.into(), tag.into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Universe, ANY_SOURCE, ANY_TAG};

    #[test]
    fn ping_pong() {
        Universe::run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(&[1u32, 2, 3], 1, 0).unwrap();
                let (v, st) = comm.recv_vec::<u32>(1, 1).unwrap();
                assert_eq!(v, vec![4, 5]);
                assert_eq!(st.source, 1);
                assert_eq!(st.tag, 1);
            } else {
                let (v, _) = comm.recv_vec::<u32>(0, 0).unwrap();
                assert_eq!(v, vec![1, 2, 3]);
                comm.send(&[4u32, 5], 0, 1).unwrap();
            }
        });
    }

    #[test]
    fn recv_into_with_status() {
        Universe::run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(&[7u64; 4], 1, 9).unwrap();
            } else {
                let mut buf = [0u64; 8];
                let st = comm.recv_into(&mut buf, 0, 9).unwrap();
                assert_eq!(st.count::<u64>(), 4);
                assert_eq!(&buf[..4], &[7; 4]);
            }
        });
    }

    #[test]
    fn wildcard_source_and_tag() {
        Universe::run(3, |comm| {
            if comm.rank() == 0 {
                let mut seen = [false; 2];
                for _ in 0..2 {
                    let (v, st) = comm.recv_vec::<u8>(ANY_SOURCE, ANY_TAG).unwrap();
                    assert_eq!(v, vec![st.source as u8]);
                    assert_eq!(st.tag, st.source as i32 * 10);
                    seen[st.source - 1] = true;
                }
                assert_eq!(seen, [true, true]);
            } else {
                comm.send(&[comm.rank() as u8], 0, comm.rank() as i32 * 10)
                    .unwrap();
            }
        });
    }

    #[test]
    fn non_overtaking_per_source_tag() {
        Universe::run(2, |comm| {
            if comm.rank() == 0 {
                for i in 0..100u32 {
                    comm.send(&[i], 1, 5).unwrap();
                }
            } else {
                for i in 0..100u32 {
                    let ((v, _), i) = (comm.recv_vec::<u32>(0, 5).unwrap(), i);
                    assert_eq!(v, vec![i]);
                }
            }
        });
    }

    #[test]
    fn tag_selectivity() {
        Universe::run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(&[1u8], 1, 1).unwrap();
                comm.send(&[2u8], 1, 2).unwrap();
            } else {
                // Receive tag 2 first even though tag 1 arrived earlier.
                let (v2, _) = comm.recv_vec::<u8>(0, 2).unwrap();
                let (v1, _) = comm.recv_vec::<u8>(0, 1).unwrap();
                assert_eq!((v1, v2), (vec![1], vec![2]));
            }
        });
    }

    #[test]
    fn truncation_error() {
        Universe::run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(&[1u32; 10], 1, 0).unwrap();
            } else {
                let mut small = [0u32; 2];
                let err = comm.recv_into(&mut small, 0, 0).unwrap_err();
                assert!(matches!(
                    err,
                    MpiError::Truncated {
                        message_bytes: 40,
                        buffer_bytes: 8
                    }
                ));
            }
        });
    }

    /// A payload that is not whole elements of the receive type is the
    /// sender's doing: `Truncated` by the `whole_elements` rule, from
    /// both receives that place into a buffer (both used to panic).
    #[test]
    fn partial_element_payload_is_truncated_not_a_panic() {
        Universe::run(2, |comm| {
            let peer = 1 - comm.rank();
            let want = MpiError::Truncated {
                message_bytes: 3,
                buffer_bytes: 0,
            };
            let mut buf = [0u64; 4];
            if comm.rank() == 0 {
                comm.send(&[1u8, 2, 3], peer, 0).unwrap();
            } else {
                assert_eq!(comm.recv_into(&mut buf, peer, 0).unwrap_err(), want);
            }
            let got = comm.sendrecv(&[1u8, 2, 3], peer, 1, &mut buf, peer, 1);
            assert_eq!(got.unwrap_err(), want);
        });
    }

    #[test]
    fn sendrecv_ring_rotation() {
        Universe::run(4, |comm| {
            let right = (comm.rank() + 1) % 4;
            let left = (comm.rank() + 3) % 4;
            let mut got = [0usize];
            comm.sendrecv(&[comm.rank()], right, 3, &mut got, left, 3)
                .unwrap();
            assert_eq!(got[0], left);
        });
    }

    #[test]
    fn probe_then_sized_recv() {
        Universe::run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(&[9u16; 5], 1, 4).unwrap();
            } else {
                let st = comm.probe(ANY_SOURCE, ANY_TAG).unwrap();
                assert_eq!(st.count::<u16>(), 5);
                let mut buf = vec![0u16; st.count::<u16>()];
                comm.recv_into(&mut buf, st.source, st.tag).unwrap();
                assert_eq!(buf, vec![9; 5]);
            }
        });
    }

    #[test]
    fn iprobe_nonblocking() {
        Universe::run(2, |comm| {
            if comm.rank() == 0 {
                // Nothing has been sent to rank 0.
                assert!(comm.iprobe(ANY_SOURCE, ANY_TAG).is_none());
                comm.send(&[1u8], 1, 0).unwrap();
            } else {
                let st = loop {
                    if let Some(st) = comm.iprobe(ANY_SOURCE, ANY_TAG) {
                        break st;
                    }
                    std::thread::yield_now();
                };
                assert_eq!(st.source, 0);
                let (v, _) = comm.recv_vec::<u8>(st.source, st.tag).unwrap();
                assert_eq!(v, vec![1]);
            }
        });
    }

    #[test]
    fn negative_user_tag_rejected() {
        Universe::run(2, |comm| {
            if comm.rank() == 0 {
                assert!(matches!(
                    comm.send(&[1u8], 1, -5),
                    Err(MpiError::InvalidTag { tag: -5 })
                ));
            }
        });
    }

    #[test]
    fn probe_then_match_coherent_under_backlog() {
        // A probe's status must identify a message that the matching
        // receive then actually gets, even with unrelated traffic piled
        // up in the unexpected queue ahead of and behind it.
        Universe::run(3, |comm| {
            if comm.rank() == 0 {
                for i in 0..20u32 {
                    comm.send(&[i], 2, 7).unwrap();
                }
            } else if comm.rank() == 1 {
                comm.send(&[1u16, 2, 3], 2, 9).unwrap();
            } else {
                // Wait for the tag-9 message amid the tag-7 backlog.
                let st = comm.probe(1, 9).unwrap();
                assert_eq!(st.count::<u16>(), 3);
                let mut buf = vec![0u16; st.count::<u16>()];
                let got = comm.recv_into(&mut buf, st.source, st.tag).unwrap();
                assert_eq!(got, st, "the probed message is the matched one");
                assert_eq!(buf, vec![1, 2, 3]);
                for i in 0..20u32 {
                    let (v, _) = comm.recv_vec::<u32>(0, 7).unwrap();
                    assert_eq!(v, vec![i], "backlog drains in order");
                }
            }
        });
    }

    #[test]
    fn mailbox_stats_expose_matching_pressure() {
        Universe::run(2, |comm| {
            if comm.rank() == 0 {
                for i in 0..8u8 {
                    comm.send(&[i], 1, i as i32).unwrap();
                }
                comm.send(&[255u8], 1, 100).unwrap();
            } else {
                // Receiving the last-sent message first forces the
                // earlier eight through the unexpected queue.
                let (v, _) = comm.recv_vec::<u8>(0, 100).unwrap();
                assert_eq!(v, vec![255]);
                let depth = comm.mailbox_stats().max_unexpected_depth;
                assert!(depth >= 8, "burst must register as pressure: {depth}");
                for i in 0..8u8 {
                    comm.recv_vec::<u8>(0, i as i32).unwrap();
                }
                assert_eq!(comm.mailbox_stats().queued, 0);
            }
        });
    }

    #[test]
    fn send_to_self() {
        Universe::run(1, |comm| {
            comm.send(&[42u8], 0, 0).unwrap();
            let (v, st) = comm.recv_vec::<u8>(0, 0).unwrap();
            assert_eq!(v, vec![42]);
            assert_eq!(st.source, 0);
        });
    }

    #[test]
    fn recv_one_single_value() {
        Universe::run(2, |comm| {
            if comm.rank() == 0 {
                comm.send_one(123u64, 1, 0).unwrap();
            } else {
                let (v, _) = comm.recv_one::<u64>(0, 0).unwrap();
                assert_eq!(v, 123);
            }
        });
    }

    #[test]
    fn raw_bytes_roundtrip() {
        Universe::run(2, |comm| {
            if comm.rank() == 0 {
                comm.send_bytes(b"hello bytes", 1, 0).unwrap();
            } else {
                let (b, st) = comm.recv_bytes(0, 0).unwrap();
                assert_eq!(&b[..], b"hello bytes");
                assert_eq!(st.bytes, 11);
            }
        });
    }
}
