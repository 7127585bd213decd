//! Output digests and the committed golden files they are checked
//! against at each workload's default seed.

use colt_core::sim::SimResult;

/// FNV-1a (64-bit) over a sequence of words, little-endian.
pub fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    words
        .into_iter()
        .fold(FNV_OFFSET, |h, w| fnv_bytes(h, &w.to_le_bytes()))
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

fn fnv_bytes(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Every counter of a [`SimResult`], in a fixed order: the words two
/// runs of one cell must agree on.
pub fn sim_words(r: &SimResult) -> Vec<u64> {
    let t = &r.tlb;
    let mut w = vec![
        t.accesses,
        t.l1_hits,
        t.l1_misses,
        t.l2_hits,
        t.l2_misses,
        t.fills,
        t.superpage_fills,
        t.pb_hits,
        t.coalesce_overflow,
        t.asid_flushes,
        t.asid_entries_flushed,
    ];
    w.extend(t.coalesce_hist);
    w.extend([
        r.walker.walks,
        r.walker.total_latency,
        r.walker.faults,
        r.instructions,
        r.walk_cycles,
        r.data_stall_cycles,
        r.l2_tlb_cycles,
        r.oracle_mismatches,
    ]);
    w
}

/// One digest line per output row: `(row key, digest)`.
pub type Digests = Vec<(String, u64)>;

/// Renders digests in the golden-file format, one `key digest` per line.
pub fn render(digests: &Digests) -> String {
    digests
        .iter()
        .map(|(k, d)| format!("{k} {d:016x}\n"))
        .collect()
}

/// The committed golden digests for `workload` at its default seed.
pub fn committed(workload: &str) -> &'static str {
    match workload {
        "fig18_warm" => include_str!("../golden/fig18_warm.txt"),
        "prep_cold" => include_str!("../golden/prep_cold.txt"),
        "churn_virt" => include_str!("../golden/churn_virt.txt"),
        _ => "",
    }
}

/// Compares computed digests with a golden file; returns one message per
/// differing, missing or unexpected row.
pub fn diff(golden: &str, digests: &Digests) -> Vec<String> {
    let actual = render(digests);
    let mut out = Vec::new();
    let expected: Vec<&str> = golden.lines().filter(|l| !l.trim().is_empty()).collect();
    let got: Vec<&str> = actual.lines().collect();
    for line in &got {
        if !expected.contains(line) {
            out.push(format!("unexpected digest row: {line}"));
        }
    }
    for line in &expected {
        if !got.contains(line) {
            out.push(format!("missing golden row: {line}"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_the_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv_bytes(FNV_OFFSET, b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv_bytes(FNV_OFFSET, b"a"), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(fnv_bytes(FNV_OFFSET, b"foobar"), 0x8594_4171_F739_67E8);
        assert_ne!(fnv([1, 2]), fnv([2, 1]), "order matters");
    }

    #[test]
    fn diff_reports_changed_and_missing_rows() {
        let digests = vec![("a".to_string(), 1), ("b".to_string(), 2)];
        assert!(diff(&render(&digests), &digests).is_empty());
        let golden = "a 0000000000000001\nc 0000000000000003\n";
        let d = diff(golden, &digests);
        assert_eq!(d.len(), 2, "{d:?}");
    }
}
