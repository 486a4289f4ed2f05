//! Length-prefixed, CRC-guarded frames — the on-disk unit of the
//! results log.
//!
//! ```text
//! frame := len:u32le crc:u32le payload[len]
//! ```
//!
//! `crc` is CRC-32 (IEEE) over the payload. The log is fsync-free: a
//! crash can leave a torn final frame, so readers stop at the first
//! frame whose length or checksum does not hold and report the length of
//! the clean prefix, which [`crate::TimeSeriesStore`] truncates back to
//! on open.

/// Bytes of frame header (length + checksum).
pub const FRAME_HEADER: usize = 8;

/// Upper bound on a single frame's payload; anything larger is treated
/// as corruption rather than an allocation request.
pub const MAX_FRAME: usize = 1 << 28;

/// CRC-32 (IEEE 802.3) slice-by-8 tables, built at compile time.
/// `CRC_TABLES[0]` is the classic one-byte table; `CRC_TABLES[k][b]` is
/// the CRC of byte `b` followed by `k` zero bytes, so eight table reads
/// fold eight input bytes per step.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 (IEEE) of `data`, eight bytes per step.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = data.chunks_exact(8);
    for ch in &mut chunks {
        let lo = c ^ u32::from_le_bytes([ch[0], ch[1], ch[2], ch[3]]);
        let hi = u32::from_le_bytes([ch[4], ch[5], ch[6], ch[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Appends one frame wrapping `payload` to `out`.
pub fn write_frame(out: &mut Vec<u8>, payload: &[u8]) {
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// The payload of the frame starting at byte `at` of `bytes`, or `None`
/// when its header is cut short, its length runs past the buffer (or
/// [`MAX_FRAME`]), or its checksum does not hold.
pub(crate) fn frame_at(bytes: &[u8], at: usize) -> Option<&[u8]> {
    let rest = bytes.get(at..)?;
    if rest.len() < FRAME_HEADER {
        return None;
    }
    let len = u32::from_le_bytes(rest[0..4].try_into().expect("4 bytes")) as usize;
    let crc = u32::from_le_bytes(rest[4..8].try_into().expect("4 bytes"));
    if len > MAX_FRAME || rest.len() < FRAME_HEADER + len {
        return None;
    }
    let payload = &rest[FRAME_HEADER..FRAME_HEADER + len];
    (crc32(payload) == crc).then_some(payload)
}

/// Iterator over the clean prefix of a frame log.
///
/// Yields `(frame_offset, payload)` for every intact frame and stops at
/// the first torn or corrupt one; [`FrameIter::valid_len`] then reports
/// how many bytes of the buffer form the recoverable prefix.
pub struct FrameIter<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> FrameIter<'a> {
    /// Starts scanning `bytes` from the beginning.
    pub fn new(bytes: &'a [u8]) -> Self {
        FrameIter { bytes, pos: 0 }
    }

    /// Bytes consumed by intact frames so far — after the iterator is
    /// exhausted, the length of the clean prefix.
    pub fn valid_len(&self) -> usize {
        self.pos
    }
}

impl<'a> Iterator for FrameIter<'a> {
    type Item = (usize, &'a [u8]);

    fn next(&mut self) -> Option<Self::Item> {
        let payload = frame_at(self.bytes, self.pos)?;
        let at = self.pos;
        self.pos += FRAME_HEADER + payload.len();
        Some((at, payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The one-table, byte-at-a-time loop `crc32` replaced — kept as
    /// the reference the slice-by-8 kernel must match bit for bit.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in data {
            c = CRC_TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    /// xorshift64*, seeded: the store crate has no `rand` dependency.
    fn next_rand(state: &mut u64) -> u64 {
        *state ^= *state >> 12;
        *state ^= *state << 25;
        *state ^= *state >> 27;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn random_bytes(state: &mut u64, n: usize) -> Vec<u8> {
        (0..n).map(|_| (next_rand(state) >> 32) as u8).collect()
    }

    #[test]
    fn crc_matches_known_vector() {
        // The classic check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc_slice_by_8_equals_bytewise_at_every_length_and_alignment() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let buf = random_bytes(&mut state, 64 + 8);
        for align in 0..8 {
            for len in 0..=64 {
                let s = &buf[align..align + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "align {align} len {len}");
            }
        }
    }

    #[test]
    fn crc_slice_by_8_equals_bytewise_on_random_slices() {
        let mut state = 0x0123_4567_89AB_CDEFu64;
        let buf = random_bytes(&mut state, 64 << 10);
        for _ in 0..1_000 {
            let a = next_rand(&mut state) as usize % (buf.len() + 1);
            let b = next_rand(&mut state) as usize % (buf.len() + 1);
            let s = &buf[a.min(b)..a.max(b)];
            assert_eq!(
                crc32(s),
                crc32_bytewise(s),
                "slice {}..{}",
                a.min(b),
                a.max(b)
            );
        }
    }

    #[test]
    fn frames_roundtrip_and_stop_at_torn_tail() {
        let mut log = Vec::new();
        write_frame(&mut log, b"alpha");
        write_frame(&mut log, b"");
        write_frame(&mut log, b"beta");
        let clean = log.len();
        // A torn final frame: header promising more bytes than exist.
        log.extend_from_slice(&100u32.to_le_bytes());
        log.extend_from_slice(&0u32.to_le_bytes());
        log.extend_from_slice(b"short");

        let mut it = FrameIter::new(&log);
        let payloads: Vec<&[u8]> = it.by_ref().map(|(_, p)| p).collect();
        assert_eq!(payloads, vec![b"alpha" as &[u8], b"", b"beta"]);
        assert_eq!(it.valid_len(), clean);
    }

    #[test]
    fn corrupt_crc_ends_the_scan() {
        let mut log = Vec::new();
        write_frame(&mut log, b"good");
        let keep = log.len();
        write_frame(&mut log, b"bad!");
        let last = log.len() - 1;
        log[last] ^= 0xFF; // flip a payload byte under the old checksum
        let mut it = FrameIter::new(&log);
        assert_eq!(it.by_ref().count(), 1);
        assert_eq!(it.valid_len(), keep);
    }

    #[test]
    fn absurd_length_is_corruption_not_allocation() {
        let mut log = Vec::new();
        log.extend_from_slice(&u32::MAX.to_le_bytes());
        log.extend_from_slice(&0u32.to_le_bytes());
        let mut it = FrameIter::new(&log);
        assert!(it.next().is_none());
        assert_eq!(it.valid_len(), 0);
    }
}
