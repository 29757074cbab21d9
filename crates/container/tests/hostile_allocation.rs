//! A crafted chunk may not make the reader allocate far more than the chunk
//! holds.
//!
//! A stored segment declares its event count as a bare varint.  The row
//! reader refuses a count above eight per remaining byte, and reserves the
//! events up front; an `Event` takes up to 56 bytes in memory, so the
//! reservation alone could reach ≈ 450 bytes per payload byte.  Every
//! encoded event takes at least five bytes, which is what bounds it now.
//! This binary counts the largest single allocation the decode requests,
//! through a global allocator that wraps the system one.

// A `#[global_allocator]` is an `unsafe impl`; it only forwards to `System`.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use trace_container::layout::write_chunk;
use trace_container::{read_reduced_container, ChunkKind, Codec, ContainerError};
use trace_model::codec::varint::write_u64;
use trace_model::codec::{write_string, write_string_table, CodecError};

thread_local! {
    /// The largest request made on this thread while counting, if counting.
    static LARGEST: Cell<Option<usize>> = const { Cell::new(None) };
}

struct Counting;

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = LARGEST.try_with(|largest| {
            if let Some(seen) = largest.get() {
                largest.set(Some(seen.max(layout.size())));
            }
        });
        // SAFETY: forwarded unchanged to the system allocator.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc` above, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The largest single allocation `run` requests on this thread.
fn largest_allocation<T>(run: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|largest| largest.set(Some(0)));
    let result = run();
    let largest = LARGEST.with(|largest| largest.take()).unwrap_or(0);
    (result, largest)
}

#[test]
fn a_none_stored_chunk_reserves_at_most_16_bytes_per_payload_byte() {
    // The body after the event count: 4 096 zero bytes, which decode as
    // 819 five-byte compute events and then run out.
    const BODY: usize = 4096;
    // One stored segment: id, represented, context, start, end, and an
    // event count of eight per byte behind it, the most the reader accepts.
    let mut payload = Vec::new();
    for field in [1, 0, 1, 0, 0, 0] {
        write_u64(&mut payload, field);
    }
    write_u64(&mut payload, 8 * BODY as u64);
    payload.resize(payload.len() + BODY, 0);

    // A reduced container up to that chunk: header, preamble, rank begin.
    let mut file = b"TRC2\x02\x01".to_vec();
    let mut preamble = Vec::new();
    write_string(&mut preamble, "hostile");
    write_string_table(&mut preamble, &["work".to_string()]);
    write_string_table(&mut preamble, &["main".to_string()]);
    write_u64(&mut preamble, 1);
    write_chunk(&mut file, ChunkKind::Preamble, Codec::None, &preamble).unwrap();
    write_chunk(&mut file, ChunkKind::RankBegin, Codec::None, &[0]).unwrap();
    write_chunk(&mut file, ChunkKind::Stored, Codec::None, &payload).unwrap();

    let (result, largest) = largest_allocation(|| read_reduced_container(&file[..]));
    assert!(
        matches!(
            result,
            Err(ContainerError::Codec(CodecError::UnexpectedEof))
        ),
        "{result:?}"
    );
    assert!(
        largest <= 16 * payload.len(),
        "a {}-byte payload made a {largest}-byte allocation",
        payload.len()
    );
}
