//! Minimal little-endian binary codec for durable on-disk formats.
//!
//! This is the byte-level substrate of the `usaas::persist` snapshot and
//! journal files: a [`Writer`] that appends fixed-width primitives and
//! length-prefixed strings to a `Vec<u8>`, a [`Reader`] that decodes them
//! back with bounds checking (never panicking on truncated or corrupt
//! input — every getter returns `Result`), and the [`crc32`] checksum the
//! persist layer stamps on every record so torn writes and bit flips are
//! detected instead of silently mis-decoded.
//!
//! Conventions:
//!
//! * all integers are little-endian, fixed width;
//! * `f64` round-trips through [`f64::to_bits`], so every payload —
//!   including NaNs with unusual payloads and signed zeros — is preserved
//!   **bit-identically**;
//! * strings and byte blobs are `u64` length-prefixed UTF-8 / raw bytes;
//! * collection lengths are `u64` counts written by the caller.

/// Decoding failure. Deliberately small: the persist layer maps these into
/// its own richer error/warning types.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// The input ended before the requested value was complete.
    UnexpectedEof,
    /// A decoded value violated an invariant (bad tag, bad UTF-8, an
    /// offset out of range, …). The message names the violation.
    Corrupt(&'static str),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::UnexpectedEof => write!(f, "unexpected end of input"),
            Error::Corrupt(what) => write!(f, "corrupt input: {what}"),
        }
    }
}

impl std::error::Error for Error {}

/// Append-only encoder over a growable byte buffer.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Fresh empty writer.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// Fresh writer with `capacity` bytes reserved.
    pub fn with_capacity(capacity: usize) -> Writer {
        Writer {
            buf: Vec::with_capacity(capacity),
        }
    }

    /// Consume the writer, yielding the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Append one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a `u16`, little-endian.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `i32`, little-endian.
    pub fn put_i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `usize` as a `u64` (platform-independent width).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Append an `f64` as its IEEE-754 bit pattern — the value (NaN
    /// payloads and signed zeros included) round-trips bit-identically.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Append a bool as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Append a `u64`-length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_u64(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Append a `u64`-length-prefixed raw byte blob.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_u64(bytes.len() as u64);
        self.buf.extend_from_slice(bytes);
    }
}

/// Bounds-checked decoder over a byte slice.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Start decoding at the beginning of `buf`.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when every byte has been consumed — decoders should check this
    /// at the end so trailing garbage is flagged rather than ignored.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], Error> {
        if self.remaining() < n {
            return Err(Error::UnexpectedEof);
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Read one byte.
    pub fn get_u8(&mut self) -> Result<u8, Error> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u16`.
    pub fn get_u16(&mut self) -> Result<u16, Error> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Read a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, Error> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, Error> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Read a little-endian `i32`.
    pub fn get_i32(&mut self) -> Result<i32, Error> {
        let b = self.take(4)?;
        Ok(i32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a `u64` and narrow it to `usize`, rejecting values that do not
    /// fit (corrupt lengths must not wrap).
    pub fn get_usize(&mut self) -> Result<usize, Error> {
        usize::try_from(self.get_u64()?).map_err(|_| Error::Corrupt("length exceeds usize"))
    }

    /// Read a `u64` meant to be a collection length, rejecting lengths
    /// larger than the bytes that remain (each element takes ≥ 1 byte) —
    /// the guard that keeps a corrupt length prefix from turning into a
    /// multi-gigabyte allocation.
    pub fn get_len(&mut self) -> Result<usize, Error> {
        let n = self.get_usize()?;
        if n > self.remaining() {
            return Err(Error::Corrupt("length prefix exceeds remaining input"));
        }
        Ok(n)
    }

    /// Read an `f64` from its bit pattern (bit-identical round trip).
    pub fn get_f64(&mut self) -> Result<f64, Error> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Read a bool byte, rejecting anything but 0/1.
    pub fn get_bool(&mut self) -> Result<bool, Error> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(Error::Corrupt("bool byte not 0/1")),
        }
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<&'a str, Error> {
        let n = self.get_len()?;
        let bytes = self.take(n)?;
        std::str::from_utf8(bytes).map_err(|_| Error::Corrupt("string is not UTF-8"))
    }

    /// Read a length-prefixed raw byte blob.
    pub fn get_bytes(&mut self) -> Result<&'a [u8], Error> {
        let n = self.get_len()?;
        self.take(n)
    }

    /// Step over `n` bytes without reading them.
    pub fn skip(&mut self, n: usize) -> Result<(), Error> {
        self.take(n).map(|_| ())
    }
}

/// The reflected IEEE 802.3 polynomial of CRC-32/ISO-HDLC.
const CRC32_POLY: u32 = 0xEDB8_8320;

/// Slicing-by-8 tables: `[0][b]` is the CRC of the single byte `b`, and
/// `[k][b]` is `[k - 1][b]` advanced by one more zero byte, so one lookup
/// in each of the eight tables folds eight input bytes at once.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (CRC32_POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        tables[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = tables[k - 1][b];
            tables[k][b] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    tables
}

static CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();

/// CRC-32/ISO-HDLC (IEEE 802.3 polynomial, reflected — the zlib/`cksum
/// -o3` variant), table-driven: slicing-by-8 over whole 8-byte words,
/// then one table step per trailing byte. Same polynomial, initial value
/// and final xor as the bitwise definition, so every checksum on disk is
/// unchanged. Portable and dependency-free.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut crc: u32 = !0;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][usize::from(w[4])]
            ^ t[2][usize::from(w[5])]
            ^ t[1][usize::from(w[6])]
            ^ t[0][usize::from(w[7])];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// The bitwise definition of [`crc32`] — eight shift/xor steps per byte —
/// kept as the oracle the table-driven version is tested against.
#[cfg(test)]
fn crc32_bitwise(bytes: &[u8]) -> u32 {
    let mut crc: u32 = !0;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (CRC32_POLY & mask);
        }
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = Writer::new();
        w.put_u8(7);
        w.put_u16(65_535);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 3);
        w.put_i32(-123_456);
        w.put_usize(42);
        w.put_f64(-0.0);
        w.put_f64(f64::from_bits(0x7FF8_0000_0000_1234)); // NaN with payload
        w.put_bool(true);
        w.put_str("héllo wörld");
        w.put_bytes(&[1, 2, 3]);
        let bytes = w.into_bytes();

        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u16().unwrap(), 65_535);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.get_i32().unwrap(), -123_456);
        assert_eq!(r.get_usize().unwrap(), 42);
        assert_eq!(r.get_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.get_f64().unwrap().to_bits(), 0x7FF8_0000_0000_1234);
        assert!(r.get_bool().unwrap());
        assert_eq!(r.get_str().unwrap(), "héllo wörld");
        assert_eq!(r.get_bytes().unwrap(), &[1, 2, 3]);
        assert!(r.is_exhausted());
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut w = Writer::new();
        w.put_u64(99);
        w.put_str("hello");
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = Reader::new(&bytes[..cut]);
            let first = r.get_u64();
            if cut < 8 {
                assert_eq!(first, Err(Error::UnexpectedEof), "cut {cut}");
                continue;
            }
            assert_eq!(first.unwrap(), 99);
            assert!(r.get_str().is_err(), "cut {cut} must fail the string");
        }
    }

    #[test]
    fn hostile_lengths_are_rejected() {
        // A length prefix claiming more data than exists must error before
        // allocating.
        let mut w = Writer::new();
        w.put_u64(u64::MAX);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(matches!(r.get_len(), Err(Error::Corrupt(_))));
        let mut r2 = Reader::new(&bytes);
        assert!(r2.get_str().is_err());
        // Skipping past the end is an error; skipping to it is not.
        assert_eq!(Reader::new(&bytes).skip(9), Err(Error::UnexpectedEof));
        let mut r4 = Reader::new(&bytes);
        assert_eq!(r4.skip(8), Ok(()));
        assert!(r4.is_exhausted());
        // A bad bool byte is corrupt, not a panic.
        let mut r3 = Reader::new(&[9]);
        assert_eq!(r3.get_bool(), Err(Error::Corrupt("bool byte not 0/1")));
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard test vector for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bitwise(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"abc"), crc32(b"abd"));
    }

    #[test]
    fn crc32_matches_the_bitwise_oracle_at_every_length_and_offset() {
        // Every length 0..=300 (each remainder mod 8, many times over) at
        // every start offset 0..8 of one buffer, so unaligned words and
        // every tail length are covered deterministically.
        let buf: Vec<u8> = (0..308u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        for offset in 0..8 {
            for len in 0..=300 {
                let slice = &buf[offset..offset + len];
                assert_eq!(
                    crc32(slice),
                    crc32_bitwise(slice),
                    "offset {offset} len {len}"
                );
            }
        }
    }

    use proptest::prelude::*;

    proptest! {
        #[test]
        fn crc32_equals_crc32_bitwise(
            bytes in prop::collection::vec(0u8..=255, 0..301),
            offset in 0usize..8,
        ) {
            prop_assert_eq!(crc32(&bytes), crc32_bitwise(&bytes));
            let tail = &bytes[offset.min(bytes.len())..];
            prop_assert_eq!(crc32(tail), crc32_bitwise(tail));
        }
    }
}
