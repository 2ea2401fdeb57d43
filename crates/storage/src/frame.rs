//! The one definition of the checksummed frame every byte stream in
//! the system is cut into — WAL records on disk, WAL-shipping messages
//! ([`crate::ship`]) and the SQL session protocol (`maybms-server`):
//!
//! ```text
//! | len: u32 LE | crc32(payload): u32 LE | payload: len bytes |
//! ```
//!
//! The length field is **outside** the checksum (it sizes the read of
//! the bytes that are covered), so no reader may trust it: streams
//! bound it with a caller-chosen constant *before* reading the body and
//! let the buffer grow only as bytes actually arrive
//! ([`read_frame`]); slices compare it against the bytes at hand
//! ([`scan`]). A frame cut short at any offset, or with any payload
//! byte damaged, is never returned as a payload.

use std::io::{self, Read, Write};

use crate::bytes::Writer;
use crate::crc::crc32;

/// Bytes of framing ahead of every payload.
pub const FRAME_HEADER_LEN: usize = 8;

/// Bound on a server reply or a shipped message — the largest
/// legitimate frame is a full snapshot transfer.
pub const MAX_FRAME_LEN: usize = 1 << 30;

/// Bound on a client→server request (one SQL statement).
pub const MAX_REQUEST_LEN: usize = 16 << 20;

/// Buffer capacity reserved before any payload byte arrives; beyond it
/// the buffer follows the bytes received, not the bytes declared.
const INITIAL_CAPACITY: usize = 64 << 10;

fn header(payload: &[u8]) -> [u8; FRAME_HEADER_LEN] {
    let mut h = [0u8; FRAME_HEADER_LEN];
    h[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    h[4..].copy_from_slice(&crc32(payload).to_le_bytes());
    h
}

/// Appends `payload` to `out` as one frame.
pub fn put_frame(out: &mut Vec<u8>, payload: &[u8]) {
    out.reserve(FRAME_HEADER_LEN + payload.len());
    out.extend_from_slice(&header(payload));
    out.extend_from_slice(payload);
}

/// A payload writer with room for `capacity` payload bytes and the
/// frame header reserved ahead of them; [`write_sealed`] sends it.
pub fn payload_writer(capacity: usize) -> Writer {
    let mut w = Writer::with_capacity(FRAME_HEADER_LEN + capacity);
    w.put_bytes(&[0; FRAME_HEADER_LEN]);
    w
}

/// Seals a frame begun by [`payload_writer`] — length and checksum go
/// into the reserved header, in the buffer that holds the payload, so the
/// payload is never copied — then writes it (a single `write_all`) and
/// flushes.
pub fn write_sealed<W: Write>(w: &mut W, frame: Writer) -> io::Result<()> {
    let mut frame = frame.into_inner();
    let (h, payload) = frame.split_at_mut(FRAME_HEADER_LEN);
    h.copy_from_slice(&header(payload));
    w.write_all(&frame)?;
    w.flush()
}

fn split_header(h: &[u8; FRAME_HEADER_LEN]) -> (usize, u32) {
    let len = u32::from_le_bytes([h[0], h[1], h[2], h[3]]) as usize;
    (len, u32::from_le_bytes([h[4], h[5], h[6], h[7]]))
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Reads one frame and returns its payload. A declared length above
/// `max_len` is `InvalidData` before a single body byte is read; a
/// stream that ends inside the frame is `UnexpectedEof`; a checksum
/// mismatch is `InvalidData`.
pub fn read_frame<R: Read>(r: &mut R, max_len: usize) -> io::Result<Vec<u8>> {
    let mut header = [0u8; FRAME_HEADER_LEN];
    r.read_exact(&mut header)?;
    let (len, crc) = split_header(&header);
    if len > max_len {
        return Err(invalid(format!(
            "frame declares {len} bytes (max {max_len}): corrupt stream"
        )));
    }
    let mut payload = Vec::with_capacity(len.min(INITIAL_CAPACITY));
    r.take(len as u64).read_to_end(&mut payload)?;
    if payload.len() < len {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!("stream ended {} bytes into a {len}-byte frame", payload.len()),
        ));
    }
    if crc32(&payload) != crc {
        return Err(invalid("frame checksum mismatch (corrupt or torn stream)".into()));
    }
    Ok(payload)
}

/// What the front of a byte slice holds — see [`scan`].
#[derive(Debug, PartialEq, Eq)]
pub enum Scan<'a> {
    /// A whole frame with a matching checksum: its payload. The frame
    /// spans `FRAME_HEADER_LEN + payload.len()` bytes.
    Frame(&'a [u8]),
    /// Fewer bytes than a header, or than the header declares: a torn
    /// tail, or an append still in flight.
    Incomplete,
    /// Every declared byte is present but the checksum fails.
    Corrupt,
}

/// Classifies the frame at the front of `buf` (a WAL file's contents
/// from some record boundary on).
pub fn scan(buf: &[u8]) -> Scan<'_> {
    let Some((header, rest)) = buf.split_first_chunk::<FRAME_HEADER_LEN>() else {
        return Scan::Incomplete;
    };
    let (len, crc) = split_header(header);
    match rest.get(..len) {
        None => Scan::Incomplete,
        Some(payload) if crc32(payload) == crc => Scan::Frame(payload),
        Some(_) => Scan::Corrupt,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut buf = Vec::new();
        put_frame(&mut buf, payload);
        buf
    }

    #[test]
    fn a_sealed_frame_is_the_appended_frame() {
        for payload in [&b""[..], b"x", &[0xA5; 300]] {
            let mut w = payload_writer(0);
            w.put_bytes(payload);
            let mut sent = Vec::new();
            write_sealed(&mut sent, w).unwrap();
            assert_eq!(sent, framed(payload));
        }
    }

    #[test]
    fn frames_round_trip_and_concatenate() {
        let payloads: [&[u8]; 3] = [b"first", b"", b"third, a bit longer"];
        let mut buf = Vec::new();
        for p in payloads {
            put_frame(&mut buf, p);
        }
        let mut stream = &buf[..];
        let mut at = 0;
        for p in payloads {
            assert_eq!(read_frame(&mut stream, MAX_REQUEST_LEN).unwrap(), p);
            assert_eq!(scan(&buf[at..]), Scan::Frame(p));
            at += FRAME_HEADER_LEN + p.len();
        }
        assert!(stream.is_empty());
        assert_eq!(scan(&buf[at..]), Scan::Incomplete);
    }

    /// The one sweep every framed format relies on: a frame torn at
    /// every offset, damaged at every payload byte, or declaring an
    /// oversized length is never returned as a payload.
    #[test]
    fn torn_flipped_and_oversized_frames_are_rejected() {
        let buf = framed(b"the payload under test");
        for cut in 0..buf.len() {
            let err = read_frame(&mut &buf[..cut], MAX_FRAME_LEN).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut at {cut}");
            assert_eq!(scan(&buf[..cut]), Scan::Incomplete, "cut at {cut}");
        }
        for at in FRAME_HEADER_LEN..buf.len() {
            for bit in [0x01, 0x40] {
                let mut bad = buf.clone();
                bad[at] ^= bit;
                let err = read_frame(&mut &bad[..], MAX_FRAME_LEN).unwrap_err();
                assert_eq!(err.kind(), io::ErrorKind::InvalidData, "flip at {at}");
                assert_eq!(scan(&bad), Scan::Corrupt, "flip at {at}");
            }
        }
        // a flip in the stored checksum is as fatal as one in the payload
        let mut bad = buf.clone();
        bad[5] ^= 0x10;
        assert!(read_frame(&mut &bad[..], MAX_FRAME_LEN).is_err());
        assert_eq!(scan(&bad), Scan::Corrupt);
        // a flip in the (un-checksummed) length: ~4 GiB declared
        let mut huge = buf;
        huge[3] = 0xFF;
        let err = read_frame(&mut &huge[..], MAX_FRAME_LEN).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("corrupt stream"), "{err}");
        assert_eq!(scan(&huge), Scan::Incomplete);
    }

    /// Counts the bytes handed out, so a test can prove the body of an
    /// over-the-bound frame was never read.
    struct Counting<'a> {
        inner: &'a [u8],
        read: usize,
    }

    impl Read for Counting<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self.inner.read(buf)?;
            self.read += n;
            Ok(n)
        }
    }

    #[test]
    fn request_over_the_bound_is_refused_without_reading_the_body() {
        let buf = framed(&vec![7u8; MAX_REQUEST_LEN + 1]);
        let mut stream = Counting { inner: &buf, read: 0 };
        let err = read_frame(&mut stream, MAX_REQUEST_LEN).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(stream.read, FRAME_HEADER_LEN, "the body must stay unread");
        // the same frame is fine under the reply/ship bound
        assert_eq!(read_frame(&mut &buf[..], MAX_FRAME_LEN).unwrap().len(), MAX_REQUEST_LEN + 1);
    }

    #[test]
    fn allocation_follows_bytes_received_not_bytes_declared() {
        // a header declaring the full 1 GiB, ten bytes, then EOF: the
        // reader must report the short stream, having buffered only
        // what arrived (a `vec![0; len]` here would commit 1 GiB)
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME_LEN as u32).to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&[0xAB; 10]);
        let err = read_frame(&mut &buf[..], MAX_FRAME_LEN).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert!(err.to_string().contains("10 bytes into"), "{err}");
    }
}
