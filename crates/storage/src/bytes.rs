//! Hand-rolled binary encoding primitives shared by every on-disk format
//! (and by the higher layers' payload codecs: the WSD snapshot codec in
//! `maybms-core` and the statement codec in `maybms-sql`).
//!
//! All integers are little-endian and fixed-width; strings are a `u32`
//! length followed by UTF-8 bytes; floats are stored as their exact IEEE
//! 754 bit pattern so round trips are bit-identical. No varints: the
//! formats here trade a few bytes for trivially auditable framing.

use maybms_relational::{ColumnType, Error, Result, Value};

/// An append-only byte sink.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Writer {
        Writer { buf: Vec::new() }
    }

    /// An empty writer with `n` bytes preallocated.
    pub fn with_capacity(n: usize) -> Writer {
        Writer { buf: Vec::with_capacity(n) }
    }

    /// The encoded bytes.
    pub fn into_inner(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing was written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `i64`.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Exact bit pattern: `get_f64` returns a bit-identical float.
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Appends raw bytes (no length prefix — pair with [`Reader::get_bytes`]).
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Appends a `u32`-length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Encodes a scalar [`Value`] with a one-byte tag.
    pub fn put_value(&mut self, v: &Value) {
        match v {
            Value::Null => self.put_u8(0),
            Value::Bool(b) => {
                self.put_u8(1);
                self.put_u8(*b as u8);
            }
            Value::Int(i) => {
                self.put_u8(2);
                self.put_i64(*i);
            }
            Value::Float(f) => {
                self.put_u8(3);
                self.put_f64(*f);
            }
            Value::Str(s) => {
                self.put_u8(4);
                self.put_str(s);
            }
        }
    }

    /// Encodes a [`ColumnType`] as a one-byte tag.
    pub fn put_column_type(&mut self, ty: ColumnType) {
        self.put_u8(match ty {
            ColumnType::Bool => 0,
            ColumnType::Int => 1,
            ColumnType::Float => 2,
            ColumnType::Str => 3,
        });
    }
}

/// A cursor over an encoded byte slice. Every read is bounds-checked and
/// fails with [`Error::Storage`] instead of panicking, so a corrupt or
/// truncated input surfaces as a recoverable error.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether the whole input was consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(Error::Storage(format!(
                "truncated input: wanted {n} bytes at offset {}, {} left",
                self.pos,
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes"))) // maybms-lint: allow(no-panic-in-prod) -- the index range fixes the slice length, so try_into cannot fail
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes"))) // maybms-lint: allow(no-panic-in-prod) -- the index range fixes the slice length, so try_into cannot fail
    }

    /// Reads a little-endian `i64`.
    pub fn get_i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes"))) // maybms-lint: allow(no-panic-in-prod) -- the index range fixes the slice length, so try_into cannot fail
    }

    /// Reads the exact bit pattern written by [`Writer::put_f64`].
    pub fn get_f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads `n` raw bytes.
    pub fn get_bytes(&mut self, n: usize) -> Result<&'a [u8]> {
        self.take(n)
    }

    /// Reads a length-prefixed count, sanity-capped so a corrupt length
    /// cannot trigger a huge allocation before the data runs out.
    pub fn get_len(&mut self) -> Result<usize> {
        let n = self.get_u32()? as usize;
        if n > self.remaining() {
            return Err(Error::Storage(format!(
                "corrupt length {n} exceeds {} remaining bytes",
                self.remaining()
            )));
        }
        Ok(n)
    }

    /// Reads a string written by [`Writer::put_str`].
    pub fn get_str(&mut self) -> Result<String> {
        let n = self.get_len()?;
        let raw = self.take(n)?;
        String::from_utf8(raw.to_vec())
            .map_err(|e| Error::Storage(format!("invalid UTF-8 string: {e}")))
    }

    /// Decodes a scalar [`Value`] written by [`Writer::put_value`].
    pub fn get_value(&mut self) -> Result<Value> {
        Ok(match self.get_u8()? {
            0 => Value::Null,
            1 => Value::Bool(self.get_u8()? != 0),
            2 => Value::Int(self.get_i64()?),
            3 => Value::Float(self.get_f64()?),
            4 => Value::Str(self.get_str()?.into()),
            t => return Err(Error::Storage(format!("unknown value tag {t}"))),
        })
    }

    /// Decodes a [`ColumnType`] written by [`Writer::put_column_type`].
    pub fn get_column_type(&mut self) -> Result<ColumnType> {
        Ok(match self.get_u8()? {
            0 => ColumnType::Bool,
            1 => ColumnType::Int,
            2 => ColumnType::Float,
            3 => ColumnType::Str,
            t => return Err(Error::Storage(format!("unknown column type tag {t}"))),
        })
    }

    /// Fails unless the cursor consumed the whole input.
    pub fn expect_end(&self) -> Result<()> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(Error::Storage(format!(
                "{} trailing bytes after decoded payload",
                self.remaining()
            )))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = Writer::new();
        w.put_u8(7);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX);
        w.put_i64(-42);
        w.put_f64(0.1 + 0.2);
        w.put_str("héllo");
        let buf = w.into_inner();
        let mut r = Reader::new(&buf);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX);
        assert_eq!(r.get_i64().unwrap(), -42);
        assert_eq!(r.get_f64().unwrap().to_bits(), (0.1f64 + 0.2).to_bits());
        assert_eq!(r.get_str().unwrap(), "héllo");
        r.expect_end().unwrap();
    }

    #[test]
    fn values_round_trip_bit_identically() {
        let vals = [
            Value::Null,
            Value::Bool(true),
            Value::Int(i64::MIN),
            Value::Float(f64::NAN),
            Value::Float(-0.0),
            Value::str("möbius"),
        ];
        let mut w = Writer::new();
        for v in &vals {
            w.put_value(v);
        }
        let buf = w.into_inner();
        let mut r = Reader::new(&buf);
        for v in &vals {
            let back = r.get_value().unwrap();
            match (v, &back) {
                (Value::Float(a), Value::Float(b)) => assert_eq!(a.to_bits(), b.to_bits()),
                _ => assert_eq!(v, &back),
            }
        }
        r.expect_end().unwrap();
    }

    #[test]
    fn truncation_and_bad_tags_error() {
        let mut r = Reader::new(&[1, 2]);
        assert!(r.get_u32().is_err());
        let mut r2 = Reader::new(&[9]);
        assert!(r2.get_value().is_err());
        // corrupt length larger than the buffer
        let mut w = Writer::new();
        w.put_u32(1000);
        let buf = w.into_inner();
        assert!(Reader::new(&buf).get_len().is_err());
        // trailing garbage detected
        let r3 = Reader::new(&[0]);
        assert!(r3.expect_end().is_err());
    }
}
