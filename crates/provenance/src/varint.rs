//! LEB128 variable-length integers and zigzag signed mapping — the
//! wire primitives of the sealed-segment encoding ([`crate::store`]).
//!
//! A [`crate::ProvEvent`] in memory is dominated by `String` headers
//! and enum padding (56–64 bytes); on the wire the same event is a tag
//! byte, a varint label, and one or two varint string-table indices.
//! Small values — interned-string indices, label masks with few bits,
//! pc deltas between consecutive basic blocks — take one or two bytes,
//! which is what buys the ≥60% size reduction the provenance store is for.

/// Appends `v` to `out` as unsigned LEB128 (7 bits per byte, high bit
/// = continuation). At most 10 bytes for a `u64`.
pub fn write_u64(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads an unsigned LEB128 integer from `buf` starting at `*pos`,
/// advancing `*pos` past it. Returns `None` on truncated input or an
/// encoding longer than a `u64` (corrupt segment — the decoder
/// surfaces this as a decode failure, never a panic).
pub fn read_u64(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let byte = *buf.get(*pos)?;
        *pos += 1;
        if shift >= 64 {
            return None;
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
    }
}

/// Maps a signed value to unsigned zigzag order (0, -1, 1, -2, …), so
/// small-magnitude deltas of either sign encode in one LEB128 byte.
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Appends `v` zigzag-mapped as LEB128.
pub fn write_i64(out: &mut Vec<u8>, v: i64) {
    write_u64(out, zigzag(v));
}

/// Reads a zigzag LEB128 signed integer (see [`read_u64`] for the
/// failure contract).
pub fn read_i64(buf: &[u8], pos: &mut usize) -> Option<i64> {
    read_u64(buf, pos).map(unzigzag)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_roundtrip_pinned_values() {
        for v in [
            0u64,
            1,
            0x7f,
            0x80,
            0x3fff,
            0x4000,
            u32::MAX as u64,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            write_u64(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_u64(&buf, &mut pos), Some(v));
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn single_byte_for_small_values() {
        let mut buf = Vec::new();
        write_u64(&mut buf, 0x7f);
        assert_eq!(buf.len(), 1);
        buf.clear();
        write_u64(&mut buf, 0x80);
        assert_eq!(buf.len(), 2);
    }

    #[test]
    fn zigzag_roundtrip_and_order() {
        for v in [0i64, -1, 1, -2, 2, i64::MIN, i64::MAX, -4096, 4096] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        // Small magnitudes map to small codes regardless of sign.
        assert!(zigzag(-1) < 0x80);
        assert!(zigzag(1) < 0x80);
        let mut buf = Vec::new();
        write_i64(&mut buf, -63);
        assert_eq!(buf.len(), 1);
        let mut pos = 0;
        assert_eq!(read_i64(&buf, &mut pos), Some(-63));
    }

    #[test]
    fn truncated_and_overlong_input_is_an_error_not_a_panic() {
        // Truncated: continuation bit set with nothing following.
        let mut pos = 0;
        assert_eq!(read_u64(&[0x80], &mut pos), None);
        // Overlong: more than 10 continuation bytes.
        let overlong = [0xffu8; 11];
        let mut pos = 0;
        assert_eq!(read_u64(&overlong, &mut pos), None);
        // Empty.
        let mut pos = 0;
        assert_eq!(read_u64(&[], &mut pos), None);
    }
}
