//! WAL shipping: the wire protocol between a replication primary and its
//! followers.
//!
//! The protocol is deliberately tiny — four message kinds over any
//! ordered byte stream (an in-process pipe, a unix socket, TCP):
//!
//! * [`Msg::Hello`] — follower → primary, once per connection: "my state
//!   is at generation *g*, I have applied everything up to LSN *x*".
//! * [`Msg::Snapshot`] — primary → follower: a full state transfer (the
//!   effective snapshot payload), sent when the follower's position
//!   predates the log (the records it needs were compacted into a
//!   checkpoint) or is from a different timeline. The follower replaces
//!   its whole state and resumes from `last_lsn`.
//! * [`Msg::Record`] — primary → follower: one committed WAL record (a
//!   single autocommitted statement or a whole transaction's commit
//!   group) with its LSN. Records are shipped strictly in LSN order;
//!   only fsynced records are ever shipped, so a follower can never get
//!   ahead of the primary's durable state.
//! * [`Msg::Heartbeat`] — primary → follower when idle: names the
//!   primary's last durable LSN so a caught-up follower can know it.
//!
//! Every message travels as one [`crate::frame`] frame — exactly like a
//! WAL record — so a **torn stream** (connection cut mid-frame, bit flips
//! in transit) is detected by [`recv_msg`] and surfaced as an error
//! rather than a half-applied message; the follower drops the connection
//! and reconnects with a fresh `Hello`, and the primary resumes from the
//! follower's LSN. Applying a record is idempotent-by-LSN on the
//! follower side (a record at or below the applied LSN is skipped), so
//! resending across a reconnect is harmless.

use std::io::{Read, Write};

use maybms_relational::{Error, Result};

use crate::bytes::{Reader, Writer};
use crate::frame::{read_frame, write_frame, MAX_FRAME_LEN};
use crate::pager::io_err;

/// Version of the shipping protocol; a mismatch fails the handshake.
pub const SHIP_VERSION: u8 = 1;

const TAG_HELLO: u8 = 1;
const TAG_SNAPSHOT: u8 = 2;
const TAG_RECORD: u8 = 3;
const TAG_HEARTBEAT: u8 = 4;

/// One replication protocol message — see the module docs for the flow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Msg {
    /// Follower → primary: the follower's current position.
    Hello {
        /// The snapshot generation of the follower's state (0 for a
        /// fresh follower).
        generation: u64,
        /// LSN of the last record the follower has applied.
        last_lsn: u64,
    },
    /// Primary → follower: a full state transfer.
    Snapshot {
        /// The generation of the shipped state.
        generation: u64,
        /// The LSN the shipped state covers; the follower resumes here.
        last_lsn: u64,
        /// The encoded database state (an effective snapshot payload).
        payload: Vec<u8>,
    },
    /// Primary → follower: one committed WAL record.
    Record {
        /// The record's log sequence number.
        lsn: u64,
        /// The WAL record payload (statement or commit group).
        payload: Vec<u8>,
    },
    /// Primary → follower: nothing new; the primary's last LSN.
    Heartbeat {
        /// The primary's snapshot generation.
        generation: u64,
        /// The primary's last durable LSN.
        last_lsn: u64,
    },
}

fn encode_msg(msg: &Msg) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u8(SHIP_VERSION);
    match msg {
        Msg::Hello { generation, last_lsn } => {
            w.put_u8(TAG_HELLO);
            w.put_u64(*generation);
            w.put_u64(*last_lsn);
        }
        Msg::Snapshot { generation, last_lsn, payload } => {
            w.put_u8(TAG_SNAPSHOT);
            w.put_u64(*generation);
            w.put_u64(*last_lsn);
            w.put_u32(payload.len() as u32);
            w.put_bytes(payload);
        }
        Msg::Record { lsn, payload } => {
            w.put_u8(TAG_RECORD);
            w.put_u64(*lsn);
            w.put_u32(payload.len() as u32);
            w.put_bytes(payload);
        }
        Msg::Heartbeat { generation, last_lsn } => {
            w.put_u8(TAG_HEARTBEAT);
            w.put_u64(*generation);
            w.put_u64(*last_lsn);
        }
    }
    w.into_inner()
}

fn decode_msg(bytes: &[u8]) -> Result<Msg> {
    let mut r = Reader::new(bytes);
    let version = r.get_u8()?;
    if version != SHIP_VERSION {
        return Err(Error::Storage(format!(
            "unsupported shipping protocol version {version} (this build speaks {SHIP_VERSION})"
        )));
    }
    let msg = match r.get_u8()? {
        TAG_HELLO => Msg::Hello { generation: r.get_u64()?, last_lsn: r.get_u64()? },
        TAG_SNAPSHOT => {
            let generation = r.get_u64()?;
            let last_lsn = r.get_u64()?;
            let len = r.get_len()?;
            let payload = r.get_bytes(len)?.to_vec();
            Msg::Snapshot { generation, last_lsn, payload }
        }
        TAG_RECORD => {
            let lsn = r.get_u64()?;
            let len = r.get_len()?;
            let payload = r.get_bytes(len)?.to_vec();
            Msg::Record { lsn, payload }
        }
        TAG_HEARTBEAT => Msg::Heartbeat { generation: r.get_u64()?, last_lsn: r.get_u64()? },
        t => return Err(Error::Storage(format!("unknown shipping message tag {t}"))),
    };
    r.expect_end()?;
    Ok(msg)
}

/// Writes one framed message to the stream and flushes it.
pub fn send_msg<W: Write>(stream: &mut W, msg: &Msg) -> Result<()> {
    write_frame(stream, &encode_msg(msg)).map_err(|e| io_err("ship message", e))
}

/// Reads one framed message from the stream, verifying its checksum. A
/// stream cut mid-frame, or a frame whose bytes were damaged in transit,
/// is an error — the caller should drop the connection and re-handshake.
pub fn recv_msg<R: Read>(stream: &mut R) -> Result<Msg> {
    let payload = read_frame(stream, MAX_FRAME_LEN)
        .map_err(|e| io_err("receive message frame (torn stream?)", e))?;
    decode_msg(&payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(msg: Msg) {
        let mut buf = Vec::new();
        send_msg(&mut buf, &msg).unwrap();
        let mut cursor = &buf[..];
        assert_eq!(recv_msg(&mut cursor).unwrap(), msg);
        assert!(cursor.is_empty(), "one message, one frame");
    }

    #[test]
    fn messages_round_trip() {
        round_trip(Msg::Hello { generation: 3, last_lsn: 17 });
        round_trip(Msg::Snapshot { generation: 4, last_lsn: 20, payload: vec![1, 2, 3] });
        round_trip(Msg::Snapshot { generation: 0, last_lsn: 0, payload: vec![] });
        round_trip(Msg::Record { lsn: 21, payload: b"statement bytes".to_vec() });
        round_trip(Msg::Heartbeat { generation: 4, last_lsn: 21 });
    }

    #[test]
    fn streams_concatenate() {
        let msgs = [
            Msg::Hello { generation: 1, last_lsn: 2 },
            Msg::Record { lsn: 3, payload: b"a".to_vec() },
            Msg::Record { lsn: 4, payload: b"bb".to_vec() },
            Msg::Heartbeat { generation: 1, last_lsn: 4 },
        ];
        let mut buf = Vec::new();
        for m in &msgs {
            send_msg(&mut buf, m).unwrap();
        }
        let mut cursor = &buf[..];
        for m in &msgs {
            assert_eq!(&recv_msg(&mut cursor).unwrap(), m);
        }
    }
}
