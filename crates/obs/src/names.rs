//! Canonical metric names.
//!
//! Every counter and gauge the pipeline records lives here, so the text
//! summary, the JSON report and `docs/observability.md` cannot drift apart
//! and the benches stop hand-rolling their own stat lines.  Names are
//! dot-separated `component.metric` identifiers; they are part of the
//! stable JSON schema, so renaming one is a schema change.

/// Candidate pairs visited by the similarity matcher.
pub const MATCH_COMPARISONS: &str = "match.comparisons";
/// Comparisons rejected by an O(1) prefilter bound before any kernel ran.
pub const MATCH_PREFILTER_REJECTS: &str = "match.prefilter_rejects";
/// Comparisons abandoned mid-kernel once the running sum exceeded the
/// threshold bound.
pub const MATCH_EARLY_ABANDONS: &str = "match.early_abandons";
/// Comparisons whose kernel ran to completion.
pub const MATCH_FULL_KERNELS: &str = "match.full_kernels";
/// Comparisons that accepted.
pub const MATCH_MATCHES: &str = "match.matches";
/// Candidates skipped unvisited by the index's sorted center window.
pub const MATCH_INDEX_WINDOW_PRUNES: &str = "match.index_window_prunes";
/// Retired: candidates skipped unvisited by an origin/pivot triangle
/// bound.  The candidate index prunes by its window alone, so nothing
/// emits this counter any more; the name stays because run reports from
/// earlier builds carry it and the benchmark harness still reads it.
pub const MATCH_INDEX_PIVOT_PRUNES: &str = "match.index_pivot_prunes";
/// Same-shape stored candidates eligible across all queries.
pub const MATCH_ELIGIBLE: &str = "match.eligible";

/// Rank sections reduced by a streaming driver.
pub const STREAM_RANKS: &str = "stream.ranks";
/// Event records seen in reduced ranks.
pub const STREAM_EVENTS: &str = "stream.events";
/// Segments cut from the stream and fed to the reducer.
pub const STREAM_SEGMENTS: &str = "stream.segments";
/// Stored representative segments in the output.
pub const STREAM_STORED: &str = "stream.stored";
/// Segment executions in the output.
pub const STREAM_EXECS: &str = "stream.execs";
/// Events encountered outside any segment (dropped).
pub const STREAM_ORPHAN_EVENTS: &str = "stream.orphan_events";
/// Segments closed implicitly (missing or mismatched end markers).
pub const STREAM_UNTERMINATED_SEGMENTS: &str = "stream.unterminated_segments";
/// Gauge: peak resident segments (stored + in-flight) of any one worker.
pub const STREAM_PEAK_RESIDENT_SEGMENTS: &str = "stream.peak_resident_segments";
/// Gauge: largest chunk payload buffered by any one reader, in bytes.
pub const STREAM_PEAK_CHUNK_BYTES: &str = "stream.peak_chunk_bytes";
/// Text bytes the workers read without parsing them: what each byte range
/// of a text body passes before its first rank section.  0 on one worker
/// and for containers.
pub const STREAM_PASSED_BYTES: &str = "stream.passed_bytes";

/// Payload chunks read (and CRC-verified) from containers.
pub const CHUNK_READS: &str = "chunk.reads";
/// Payload chunks written to containers.
pub const CHUNK_WRITES: &str = "chunk.writes";
/// Chunks whose compressed form was not smaller and were stored raw.
pub const CHUNK_COMPRESS_FALLBACKS: &str = "chunk.compress_fallbacks";

/// Bytes entering `compress()` (pre-compression payload bytes).
pub const COMPRESS_BYTES_IN: &str = "compress.bytes_in";
/// Bytes leaving `compress()` (compressed payload bytes).
pub const COMPRESS_BYTES_OUT: &str = "compress.bytes_out";
/// Bytes entering a reader's LZ stage (stored payload bytes of the chunks
/// kept under `lz` or `delta-lz`).
pub const DECOMPRESS_BYTES_IN: &str = "decompress.bytes_in";
/// Bytes leaving a reader's LZ stage (row bytes under `lz`, column streams
/// under `delta-lz`).
pub const DECOMPRESS_BYTES_OUT: &str = "decompress.bytes_out";

/// Spans dropped by the per-shard cap (never silently: see
/// `docs/observability.md`).
pub(crate) const OBS_SPANS_DROPPED: &str = "obs.spans_dropped";

/// Per-codec counter: chunks stored on disk under the codec (after the
/// raw fallback decided).  `codec_name` is `trace_compress::Codec::name()`.
pub fn codec_chunks(codec_name: &str) -> &'static str {
    match codec_name {
        "none" => "codec.none.chunks",
        "lz" => "codec.lz.chunks",
        "delta-lz" => "codec.delta-lz.chunks",
        _ => "codec.other.chunks",
    }
}

/// Per-codec counter: uncompressed payload bytes of chunks stored under
/// the codec.
pub fn codec_raw_bytes(codec_name: &str) -> &'static str {
    match codec_name {
        "none" => "codec.none.raw_bytes",
        "lz" => "codec.lz.raw_bytes",
        "delta-lz" => "codec.delta-lz.raw_bytes",
        _ => "codec.other.raw_bytes",
    }
}

/// Per-codec counter: on-disk payload bytes of chunks stored under the
/// codec.
pub fn codec_stored_bytes(codec_name: &str) -> &'static str {
    match codec_name {
        "none" => "codec.none.stored_bytes",
        "lz" => "codec.lz.stored_bytes",
        "delta-lz" => "codec.delta-lz.stored_bytes",
        _ => "codec.other.stored_bytes",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codec_names_map_to_distinct_metrics() {
        let names: Vec<&str> = ["none", "lz", "delta-lz"]
            .iter()
            .map(|c| codec_stored_bytes(c))
            .collect();
        let mut deduped = names.clone();
        deduped.dedup();
        assert_eq!(names, deduped);
        assert_eq!(codec_chunks("zstd"), "codec.other.chunks");
    }
}
