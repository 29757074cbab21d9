//! LEB128 variable-length integers and zig-zag signed encoding.
//!
//! The codec delta-encodes time stamps, so most values are small and a
//! variable-length encoding keeps trace files compact — which is what makes
//! the file-size percentages of the evaluation meaningful.

use super::{CodecError, Reader};

/// Appends `value` to `out` as an unsigned LEB128 varint.
pub fn write_u64(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Appends `value` to `out` as a zig-zag-encoded signed LEB128 varint.
pub fn write_i64(out: &mut Vec<u8>, value: i64) {
    write_u64(out, zigzag_encode(value));
}

/// Reads an unsigned LEB128 varint.
#[inline]
pub fn read_u64(reader: &mut Reader<'_>) -> Result<u64, CodecError> {
    // Nine bytes carry 63 bits and cannot overflow; only the tenth needs a
    // range check, so the common one- to three-byte values pay for none.
    let mut value: u64 = 0;
    for shift in (0..63).step_by(7) {
        let byte = reader.read_byte()?;
        value |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
    }
    read_u64_last(reader, value)
}

/// The tenth byte of a varint whose first nine all continued.
#[cold]
fn read_u64_last(reader: &mut Reader<'_>, value: u64) -> Result<u64, CodecError> {
    // The final (10th) byte of a 64-bit varint may only contribute one bit.
    let byte = reader.read_byte()?;
    if byte & 0x7e != 0 {
        return Err(CodecError::VarintOverflow);
    }
    if byte & 0x80 != 0 {
        // An eleventh byte, if the input has one, is the overflow.
        reader.read_byte()?;
        return Err(CodecError::VarintOverflow);
    }
    Ok(value | u64::from(byte) << 63)
}

/// Narrows a decoded value to the `u32` its field holds.  Every id, rank,
/// tag and count that the model keeps as `u32` travels as a `u64` varint;
/// one that does not fit is malformed input, never an alias of its low 32
/// bits.  `what` names the field for the error.
#[inline]
pub fn narrow_u32(value: u64, what: &'static str) -> Result<u32, CodecError> {
    u32::try_from(value).map_err(|_| CodecError::IdOutOfRange { what, value })
}

/// Reads an unsigned LEB128 varint that must fit `u32` (see [`narrow_u32`]).
#[inline]
pub fn read_u32(reader: &mut Reader<'_>, what: &'static str) -> Result<u32, CodecError> {
    narrow_u32(read_u64(reader)?, what)
}

/// Reads a zig-zag-encoded signed LEB128 varint.
#[inline]
pub fn read_i64(reader: &mut Reader<'_>) -> Result<i64, CodecError> {
    Ok(zigzag_decode(read_u64(reader)?))
}

/// Zig-zag encodes a signed value so small magnitudes stay small.
pub(crate) fn zigzag_encode(value: i64) -> u64 {
    ((value << 1) ^ (value >> 63)) as u64
}

/// Inverse of [`zigzag_encode`].
pub(crate) fn zigzag_decode(value: u64) -> i64 {
    ((value >> 1) as i64) ^ -((value & 1) as i64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_u64(v: u64) -> u64 {
        let mut buf = Vec::new();
        write_u64(&mut buf, v);
        let mut r = Reader::new(&buf);
        let decoded = read_u64(&mut r).unwrap();
        assert!(r.is_at_end(), "all bytes must be consumed");
        decoded
    }

    fn round_trip_i64(v: i64) -> i64 {
        let mut buf = Vec::new();
        write_i64(&mut buf, v);
        let mut r = Reader::new(&buf);
        read_i64(&mut r).unwrap()
    }

    #[test]
    fn unsigned_round_trip() {
        for v in [
            0u64,
            1,
            127,
            128,
            300,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX,
        ] {
            assert_eq!(round_trip_u64(v), v);
        }
    }

    #[test]
    fn signed_round_trip() {
        for v in [
            0i64,
            1,
            -1,
            63,
            -64,
            1_000_000,
            -1_000_000,
            i64::MAX,
            i64::MIN,
        ] {
            assert_eq!(round_trip_i64(v), v);
        }
    }

    #[test]
    fn small_values_use_one_byte() {
        let mut buf = Vec::new();
        write_u64(&mut buf, 42);
        assert_eq!(buf.len(), 1);
        buf.clear();
        write_i64(&mut buf, -3);
        assert_eq!(buf.len(), 1);
    }

    #[test]
    fn zigzag_pairs() {
        assert_eq!(zigzag_encode(0), 0);
        assert_eq!(zigzag_encode(-1), 1);
        assert_eq!(zigzag_encode(1), 2);
        assert_eq!(zigzag_encode(-2), 3);
        for v in [-5i64, 5, i64::MIN, i64::MAX] {
            assert_eq!(zigzag_decode(zigzag_encode(v)), v);
        }
    }

    #[test]
    fn truncated_input_is_an_error() {
        let mut buf = Vec::new();
        write_u64(&mut buf, u64::MAX);
        buf.pop();
        let mut r = Reader::new(&buf);
        assert!(matches!(read_u64(&mut r), Err(CodecError::UnexpectedEof)));
    }

    #[test]
    fn values_past_u32_are_out_of_range_not_aliased() {
        let mut buf = Vec::new();
        write_u64(&mut buf, u64::from(u32::MAX));
        write_u64(&mut buf, u64::from(u32::MAX) + 1);
        let mut r = Reader::new(&buf);
        assert_eq!(read_u32(&mut r, "region id"), Ok(u32::MAX));
        assert_eq!(
            read_u32(&mut r, "region id"),
            Err(CodecError::IdOutOfRange {
                what: "region id",
                value: 1 << 32,
            })
        );
    }

    #[test]
    fn overlong_varint_is_an_error() {
        // 11 continuation bytes cannot encode a u64.
        let buf = vec![0xff; 11];
        let mut r = Reader::new(&buf);
        assert!(matches!(read_u64(&mut r), Err(CodecError::VarintOverflow)));
    }
}
