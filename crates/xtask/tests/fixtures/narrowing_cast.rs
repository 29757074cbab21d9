// Fixture: a fallible read narrowed with `as` on a decode surface must trip
// the `narrowing_cast` rule -- 2^32 + 5 would decode as id 5; narrowing a
// value that was range-checked first does not.
pub fn region(reader: &mut Reader) -> Result<u32, Error> {
    let checked = read_u64(reader)?;
    if checked > 0xffff_ffff {
        return Err(Error::OutOfRange);
    }
    let _fine = checked as u32;
    Ok(read_u64(reader)? as u32)
}
