//! Explicit serialization support (§III-D3 of the paper, Fig. 5/11).
//!
//! Heap-structured data (`String`, maps, nested vectors, …) cannot be
//! described as a plain buffer; it must be packed into contiguous bytes
//! before communication. KaMPIng makes this *explicit*: serialization
//! only happens when the caller writes `send_buf(as_serialized(&data))`
//! (or `recv_buf(as_deserializable::<T>())`), because packing has real
//! allocation and CPU costs that a zero-overhead library must not hide
//! (§III-D4 measures them).
//!
//! The wire format is [`kmp_serialize`], the repository's Cereal
//! substitute.
//!
//! ```
//! use std::collections::BTreeMap;
//! use kamping::prelude::*;
//!
//! kmp_mpi::Universe::run(2, |comm| {
//!     let comm = Communicator::new(comm);
//!     if comm.rank() == 0 {
//!         let mut dict = BTreeMap::new();
//!         dict.insert("key".to_string(), "value".to_string());
//!         comm.send((send_buf(as_serialized(&dict)), destination(1))).unwrap();
//!     } else {
//!         let dict: BTreeMap<String, String> =
//!             comm.recv((recv_buf(as_deserializable()), source(0))).unwrap();
//!         assert_eq!(dict["key"], "value");
//!     }
//! });
//! ```

use serde::de::DeserializeOwned;
use serde::Serialize;

use kmp_mpi::{MpiError, Result};

use crate::communicator::Communicator;
use crate::p2p::{RecvArgs, SendArgs};
use crate::params::argset::ArgSet;
use crate::params::{Absent, NoResize, RecvBuf, SendBuf, SendRecvBuf};

/// Mode marker selecting the serialized code path of `send`/`recv`/`bcast`.
#[derive(Clone, Copy, Debug)]
pub struct SerialMode;

/// A borrowed value to be serialized into the send buffer. Created by
/// [`as_serialized`].
#[derive(Debug)]
pub struct Serialized<'a, T>(&'a T);

/// Marks data to be serialized before sending (Fig. 5:
/// `send_buf(as_serialized(data))`). Works with any [`serde::Serialize`]
/// type.
pub fn as_serialized<T: Serialize>(value: &T) -> Serialized<'_, T> {
    Serialized(value)
}

/// A marker requesting deserialization of the received payload. Created
/// by [`as_deserializable`].
#[derive(Debug, Default)]
pub struct Deserializable<T>(std::marker::PhantomData<T>);

/// Marks the receive buffer as a deserialization target (Fig. 5:
/// `recv_buf(as_deserializable::<dict>())`); the receive returns the
/// decoded value.
pub fn as_deserializable<T: DeserializeOwned>() -> Deserializable<T> {
    Deserializable(std::marker::PhantomData)
}

/// A mutable value serialized at the root and deserialized in place
/// elsewhere — the in-out form used with `bcast(send_recv_buf(..))`
/// (Fig. 11). Created by [`as_serialized_inout`].
#[derive(Debug)]
pub struct SerializedInout<'a, T>(&'a mut T);

/// Marks a value for serialize-at-root / deserialize-elsewhere in-place
/// broadcast (the RAxML-NG `mpi_broadcast` replacement of Fig. 11).
pub fn as_serialized_inout<T: Serialize + DeserializeOwned>(
    value: &mut T,
) -> SerializedInout<'_, T> {
    SerializedInout(value)
}

fn ser_err(e: kmp_serialize::Error) -> MpiError {
    MpiError::Serialize(e.to_string())
}

fn de_err(e: kmp_serialize::Error) -> MpiError {
    MpiError::Deserialize(e.to_string())
}

// --- send ------------------------------------------------------------------

impl<'a, T: Serialize> SendArgs<SerialMode>
    for ArgSet<SendBuf<Serialized<'a, T>>, Absent, Absent, Absent, Absent, Absent, Absent, Absent>
{
    fn run(self, comm: &Communicator) -> Result<()> {
        let (dest, tag) = crate::p2p::send_meta(&self.meta)?;
        let bytes = kmp_serialize::to_bytes(self.send_buf.0 .0).map_err(ser_err)?;
        // The serialized buffer moves into the transport (no second copy).
        comm.raw().send_vec(bytes, dest, tag)
    }
}

// --- recv ------------------------------------------------------------------

impl<T: DeserializeOwned> RecvArgs<SerialMode>
    for ArgSet<
        Absent,
        Absent,
        RecvBuf<Deserializable<T>, NoResize>,
        Absent,
        Absent,
        Absent,
        Absent,
        Absent,
    >
{
    type Output = T;

    fn run(self, comm: &Communicator) -> Result<T> {
        let src = self.meta.source.unwrap_or(kmp_mpi::Src::Any);
        let tag = self
            .meta
            .tag
            .map(kmp_mpi::TagSel::Is)
            .unwrap_or(kmp_mpi::TagSel::Any);
        let (bytes, _status) = comm.raw().recv_bytes(src, tag)?;
        kmp_serialize::from_bytes(&bytes).map_err(de_err)
    }
}

// --- bcast -----------------------------------------------------------------

/// Serialized broadcast (Fig. 11): the root serializes the object, other
/// ranks deserialize the broadcast bytes into their object in place.
impl Communicator {
    /// Broadcasts a serde-serializable object from the root, replacing
    /// hand-written serialize/size-exchange/deserialize layers (the
    /// RAxML-NG example of §IV-C).
    pub fn bcast_serialized<T, A>(&self, args: A) -> Result<()>
    where
        T: Serialize + DeserializeOwned,
        A: crate::params::argset::IntoArgs,
        A::Out: BcastSerializedArgs<T>,
    {
        args.into_args().run(self)
    }
}

/// Valid argument sets for [`Communicator::bcast_serialized`].
pub trait BcastSerializedArgs<T> {
    /// Executes the broadcast.
    fn run(self, comm: &Communicator) -> Result<()>;
}

impl<'a, T: Serialize + DeserializeOwned> BcastSerializedArgs<T>
    for ArgSet<
        Absent,
        SendRecvBuf<SerializedInout<'a, T>>,
        Absent,
        Absent,
        Absent,
        Absent,
        Absent,
        Absent,
    >
{
    fn run(self, comm: &Communicator) -> Result<()> {
        let root = self.meta.root.unwrap_or(0);
        let raw = comm.raw();
        let target = self.send_recv_buf.0 .0;
        if comm.rank() == root {
            let bytes = kmp_serialize::to_bytes(&*target).map_err(ser_err)?;
            raw.bcast_vec(Some(&bytes), root)?;
        } else {
            let bytes: Vec<u8> = raw.bcast_vec(None, root)?;
            *target = kmp_serialize::from_bytes(&bytes).map_err(de_err)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use kmp_mpi::Universe;
    use std::collections::BTreeMap;

    #[test]
    fn serialized_send_recv_dict() {
        // The std::unordered_map example of Fig. 5.
        Universe::run(2, |comm| {
            let comm = Communicator::new(comm);
            if comm.rank() == 0 {
                let mut dict: BTreeMap<String, String> = BTreeMap::new();
                dict.insert("alpha".into(), "1".into());
                dict.insert("beta".into(), "2".into());
                comm.send((send_buf(as_serialized(&dict)), destination(1)))
                    .unwrap();
            } else {
                let dict: BTreeMap<String, String> = comm
                    .recv((recv_buf(as_deserializable()), source(0)))
                    .unwrap();
                assert_eq!(dict.len(), 2);
                assert_eq!(dict["alpha"], "1");
                assert_eq!(dict["beta"], "2");
            }
        });
    }

    #[test]
    fn serialized_custom_struct() {
        #[derive(serde::Serialize, serde::Deserialize, PartialEq, Debug)]
        struct Model {
            name: String,
            rates: Vec<f64>,
        }
        Universe::run(2, |comm| {
            let comm = Communicator::new(comm);
            if comm.rank() == 1 {
                let m = Model {
                    name: "GTR".into(),
                    rates: vec![0.1, 0.2],
                };
                comm.send((send_buf(as_serialized(&m)), destination(0), tag(3)))
                    .unwrap();
            } else {
                let m: Model = comm
                    .recv((recv_buf(as_deserializable()), source(1), tag(3)))
                    .unwrap();
                assert_eq!(
                    m,
                    Model {
                        name: "GTR".into(),
                        rates: vec![0.1, 0.2]
                    }
                );
            }
        });
    }

    #[test]
    fn bcast_serialized_inout() {
        // Fig. 11: comm.bcast(send_recv_buf(as_serialized(obj))).
        Universe::run(3, |comm| {
            let comm = Communicator::new(comm);
            let mut obj: Vec<String> = if comm.rank() == 0 {
                vec!["tree".into(), "model".into()]
            } else {
                Vec::new()
            };
            comm.bcast_serialized::<Vec<String>, _>(
                (send_recv_buf(as_serialized_inout(&mut obj)),),
            )
            .unwrap();
            assert_eq!(obj, vec!["tree".to_string(), "model".to_string()]);
        });
    }

    #[test]
    fn serialization_failure_reports_error() {
        // Deserializing into a mismatched type yields a clean error, not
        // a panic.
        Universe::run(2, |comm| {
            let comm = Communicator::new(comm);
            if comm.rank() == 0 {
                comm.send((send_buf(as_serialized(&42u8)), destination(1)))
                    .unwrap();
            } else {
                let r: kmp_mpi::Result<Vec<u64>> =
                    comm.recv((recv_buf(as_deserializable()), source(0)));
                assert!(r.is_err());
            }
        });
    }
}
