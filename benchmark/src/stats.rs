//! Sample statistics and the two `/proc` readers the harness needs.

/// The `q`-quantile (0 ≤ q ≤ 1) of `values` with linear interpolation
/// between order statistics (the "type 7" definition numpy and R default
/// to).  Panics on an empty slice: every caller has at least one sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let position = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let below = position.floor() as usize;
    let above = position.ceil() as usize;
    sorted[below] + (sorted[above] - sorted[below]) * (position - below as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// `VmHWM` (peak resident set) in KiB from the text of `/proc/<pid>/status`.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// `utime + stime` in clock ticks from the text of `/proc/<pid>/stat`.
/// The command name (field 2) may itself hold spaces and parentheses, so
/// fields are counted from the last `)`.
pub fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    // `after_comm` starts at field 3 (state); utime and stime are 14 and 15.
    let mut fields = after_comm.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Linux reports process times in `USER_HZ` ticks, which is 100 on every
/// supported architecture (it is an ABI constant, not the kernel's `HZ`).
pub const MS_PER_TICK: f64 = 10.0;

/// Peak resident set of this process so far, KiB.
pub fn own_vm_hwm_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| parse_vm_hwm_kb(&status))
        .unwrap_or(0)
}

/// CPU time (user + system, all threads) this process has used, ms.
pub fn own_cpu_ms() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|stat| parse_cpu_ticks(&stat))
        .unwrap_or(0) as f64
        * MS_PER_TICK
}

/// 64-bit FNV-1a over a file read in 64 KiB blocks, with the file length:
/// the output check must not pull a whole output file into a child whose
/// peak memory is itself a metric.
pub fn file_digest(path: &std::path::Path) -> std::io::Result<(u64, u64)> {
    use std::io::Read;
    let mut file = std::fs::File::open(path)?;
    let mut block = vec![0u8; 64 * 1024];
    let (mut hash, mut len) = (FNV_OFFSET, 0u64);
    loop {
        let n = file.read(&mut block)?;
        if n == 0 {
            return Ok((hash, len));
        }
        hash = fnv1a(hash, &block[..n]);
        len += n as u64;
    }
}

/// [`file_digest`] of bytes already in memory.
pub fn bytes_digest(bytes: &[u8]) -> (u64, u64) {
    (fnv1a(FNV_OFFSET, bytes), bytes.len() as u64)
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &byte in bytes {
        hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_order_statistics() {
        let values = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(quantile(&values, 0.0), 1.0);
        assert_eq!(quantile(&values, 0.5), 3.0);
        assert_eq!(quantile(&values, 1.0), 5.0);
        assert!((quantile(&values, 0.1) - 1.4).abs() < 1e-12);
        assert!((quantile(&values, 0.75) - 4.0).abs() < 1e-12);
        assert_eq!(quantile(&[7.0], 0.1), 7.0);
        assert_eq!(median(&[1.0, 2.0]), 1.5);
    }

    #[test]
    fn parses_vm_hwm_from_proc_status() {
        let status = "Name:\tbench\nVmPeak:\t  123456 kB\nVmHWM:\t   98765 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(98765));
        assert_eq!(parse_vm_hwm_kb("Name:\tbench\n"), None);
    }

    #[test]
    fn parses_cpu_ticks_from_proc_stat_even_with_an_awkward_command_name() {
        let stat = "4242 (be) nch (x) S 1 4242 4242 0 -1 4194304 900 0 0 0 \
                    37 5 0 0 20 0 3 0 12345 1000000 200 18446744073709551615";
        assert_eq!(parse_cpu_ticks(stat), Some(42));
        assert_eq!(parse_cpu_ticks("no parenthesis"), None);
        assert_eq!(parse_cpu_ticks("1 (x) S 1 2"), None);
    }

    #[test]
    fn reads_this_process() {
        assert!(own_vm_hwm_kb() > 0);
        let _ = own_cpu_ms();
    }

    #[test]
    fn file_and_memory_digests_agree() {
        let path = std::env::temp_dir().join(format!("bench_digest_{}", std::process::id()));
        let bytes: Vec<u8> = (0..200_000u32).map(|i| (i * 31 % 251) as u8).collect();
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(file_digest(&path).unwrap(), bytes_digest(&bytes));
        assert_ne!(bytes_digest(&bytes), bytes_digest(&bytes[1..]));
        let _ = std::fs::remove_file(&path);
    }
}
