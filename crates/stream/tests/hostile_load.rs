//! The counts a container's preamble and index footer declare may not make
//! the whole-trace load allocate far more than the file holds.
//!
//! The load reads the declared rank count and the index entries before the
//! sections that bear them out, and reserves each section's records from
//! its entry before a worker decodes it.  A CRC-valid file can declare
//! 2^40 ranks, 2^40 index entries, a 2^60-record section, or entries that
//! place sections past the end of the file or back over one another.  The
//! reservations are capped by the bytes each section spans, and the spans
//! must tile the file, so a load never holds more than one record per
//! file byte on top of what decoding takes.  This binary counts, over every
//! thread, the largest single allocation and the most bytes live at once,
//! through a global allocator that wraps the system one; it holds one test,
//! so no other test allocates while it counts.

// A `#[global_allocator]` is an `unsafe impl`; it only forwards to `System`.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Cursor;
use std::sync::atomic::{AtomicBool, AtomicIsize, AtomicUsize, Ordering::Relaxed};

use trace_container::layout::{write_chunk, INDEX_MAGIC};
use trace_container::{
    encode_app_container, read_index, rewrite_index, write_index, ChunkKind, ChunkSpec, Codec,
};
use trace_model::codec::varint::write_u64;
use trace_model::TraceRecord;
use trace_sim::{SizePreset, Workload, WorkloadKind};
use trace_stream::load_container_file;

/// Bytes live in the heap, always tracked.
static LIVE: AtomicIsize = AtomicIsize::new(0);
/// Whether the two figures below are being taken.
static COUNTING: AtomicBool = AtomicBool::new(false);
/// The largest single request since counting started.
static LARGEST: AtomicUsize = AtomicUsize::new(0);
/// The most bytes live at once since counting started.
static PEAK: AtomicIsize = AtomicIsize::new(0);

struct Counting;

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let live = LIVE.fetch_add(layout.size() as isize, Relaxed) + layout.size() as isize;
        if COUNTING.load(Relaxed) {
            LARGEST.fetch_max(layout.size(), Relaxed);
            PEAK.fetch_max(live, Relaxed);
        }
        // SAFETY: forwarded unchanged to the system allocator.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Relaxed);
        // SAFETY: `ptr` came from `alloc` above, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// What `run` allocates, on its thread or any other: its largest single
/// request, and the most bytes it held live at once.
fn allocations<T>(run: impl FnOnce() -> T) -> (T, usize, usize) {
    let before = LIVE.load(Relaxed);
    LARGEST.store(0, Relaxed);
    PEAK.store(before, Relaxed);
    COUNTING.store(true, Relaxed);
    let result = run();
    COUNTING.store(false, Relaxed);
    let held = PEAK.load(Relaxed).saturating_sub(before).max(0) as usize;
    (result, LARGEST.load(Relaxed), held)
}

/// A container of the `dyn_load_balance` tiny trace, a few chunks per rank
/// section.
fn container() -> Vec<u8> {
    let app = Workload::new(WorkloadKind::DynLoadBalance, SizePreset::Tiny).generate();
    encode_app_container(&app, ChunkSpec::with_segments(8))
}

/// `bytes` with its preamble declaring `ranks` rank sections, and the
/// index footer moved to where the sections now are: CRC-valid throughout.
fn declaring_ranks(bytes: &[u8], ranks: u64) -> Vec<u8> {
    let len = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
    let (preamble, rest) = bytes[16..].split_at(len);
    // The preamble ends with the declared rank count, a one-byte varint.
    assert!(preamble[len - 1] < 0x80);
    let mut payload = preamble[..len - 1].to_vec();
    write_u64(&mut payload, ranks);
    let mut crafted = bytes[..6].to_vec();
    write_chunk(&mut crafted, ChunkKind::Preamble, Codec::None, &payload).unwrap();
    let shift = crafted.len() as u64 - (16 + len) as u64;
    let index = read_index(&mut Cursor::new(bytes)).unwrap();
    crafted.extend_from_slice(&rest[..index.offset as usize - 16 - len]);
    let mut sections = index.sections;
    sections.iter_mut().for_each(|entry| entry.offset += shift);
    write_index(&mut crafted, index.offset + shift, &sections).unwrap();
    crafted
}

/// `bytes` with an index footer that declares `count` entries and lists
/// the file's.
fn index_declaring(bytes: &[u8], count: u64) -> Vec<u8> {
    let index = read_index(&mut Cursor::new(bytes)).unwrap();
    // The INDEX payload opens with the entry count, a one-byte varint.
    let entries = &bytes[index.offset as usize + 11..bytes.len() - 12];
    let mut payload = Vec::new();
    write_u64(&mut payload, count);
    payload.extend_from_slice(entries);
    let mut crafted = bytes[..index.offset as usize].to_vec();
    write_chunk(&mut crafted, ChunkKind::Index, Codec::None, &payload).unwrap();
    crafted.extend_from_slice(&index.offset.to_le_bytes());
    crafted.extend_from_slice(&INDEX_MAGIC);
    crafted
}

#[test]
fn the_whole_trace_load_holds_no_more_than_a_record_per_input_byte() {
    let bytes = container();
    let rewritten = |edit: fn(&mut Vec<_>)| rewrite_index(&bytes, edit).unwrap();
    // Reserved from the counts these declare, each would be an abort or,
    // for the entries going back and forth, a reservation of about half
    // the file per section.
    let cases = [
        ("2^40 declared ranks", declaring_ranks(&bytes, 1 << 40)),
        ("an index of 2^40 entries", index_declaring(&bytes, 1 << 40)),
        (
            "a 2^60-record section",
            rewritten(|s| s[1].records = 1 << 60),
        ),
        (
            "sections past the end of the file",
            rewritten(|s| {
                s[1].offset = 1 << 40;
                s[1].records = 1 << 40;
                s[2].offset = 1 << 41;
            }),
        ),
        (
            "sections going back and forth",
            rewritten(|s| {
                let (first, last) = (s[0].offset, s[s.len() - 1].offset);
                for (i, entry) in s.iter_mut().enumerate() {
                    entry.records = 1 << 40;
                    if i > 0 {
                        entry.offset = if i % 2 == 1 { last } else { first };
                    }
                }
            }),
        ),
    ];
    let path = std::env::temp_dir().join(format!("hostile_load_{}.trc", std::process::id()));
    let per_byte = std::mem::size_of::<TraceRecord>();
    for (what, crafted) in cases {
        std::fs::write(&path, &crafted).unwrap();
        // One record per byte, and as much again for the decoding.
        let bound = 2 * per_byte * crafted.len();
        for workers in [1, 2, 3] {
            let load = || load_container_file(&path, workers);
            let (result, largest, held) = allocations(load);
            let refused = match &result {
                Err(e) => e.as_container().is_some(),
                Ok(_) => false,
            };
            assert!(refused, "{what}, {workers} workers: {:?}", result.map(drop));
            let file = crafted.len();
            assert!(
                largest <= per_byte * file,
                "{what}, {workers} workers: a {file}-byte file made a {largest}-byte allocation"
            );
            assert!(
                held <= bound,
                "{what}, {workers} workers: a {file}-byte file held {held} bytes at once"
            );
        }
    }
    // The file the cases were made from loads, within the same bounds.
    std::fs::write(&path, &bytes).unwrap();
    let (loaded, largest, held) = allocations(|| load_container_file(&path, 2));
    let _ = std::fs::remove_file(&path);
    assert!(loaded.is_ok_and(|app| app.rank_count() > 2));
    assert!(largest <= per_byte * bytes.len());
    assert!(held <= 2 * per_byte * bytes.len(), "{held} bytes held");
}
