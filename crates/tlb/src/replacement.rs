//! Replacement policies for the TLB structures.
//!
//! The paper assumes plain LRU everywhere but explicitly flags richer
//! policies as future work: "there may be benefits in prioritizing
//! entries with different coalescing amounts differently" (§4.1.5) and
//! "due to its smaller size, we suspect smarter replacement policies
//! will be even more effective" for the fully-associative TLB (§4.2.3).
//! [`ReplacementPolicy::SmallestCoalescedFirst`] implements that idea:
//! when a victim is needed, prefer the entry covering the fewest
//! translations (ties broken by recency), so high-reach entries survive.
//!
//! Every structure keeps its entries in recency order, MRU first, so a
//! victim is chosen from the resident lengths in that order without
//! building a candidate list.

use std::ops::Range;

/// Victim-selection policy.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ReplacementPolicy {
    /// Evict the least-recently-used entry (the paper's baseline).
    #[default]
    Lru,
    /// Evict the least-recently-used entry among those with the smallest
    /// coalescing length — the §4.1.5 future-work policy.
    SmallestCoalescedFirst,
}

impl ReplacementPolicy {
    /// Picks the victim among a structure's resident entries, given by
    /// their coalesced lengths in recency order (MRU first, so a higher
    /// rank is staler), skipping the ranks in `keep`. Returns the
    /// victim's rank.
    ///
    /// # Panics
    /// Panics when every resident rank is kept (no candidate left).
    pub fn choose_victim(self, lens: impl IntoIterator<Item = u64>, keep: Range<usize>) -> usize {
        let mut victim = None;
        let mut smallest = u64::MAX;
        for (rank, len) in lens.into_iter().enumerate() {
            if keep.contains(&rank) {
                continue;
            }
            let staler_pick = match self {
                ReplacementPolicy::Lru => true,
                // Later ranks are staler, so `<=` breaks length ties
                // toward the least recently used.
                ReplacementPolicy::SmallestCoalescedFirst => len <= smallest,
            };
            if staler_pick {
                smallest = len;
                victim = Some(rank);
            }
        }
        victim.expect("victim selection needs candidates")
    }
}

/// Records a hit on `slots[pos]` of an MRU-first list: the entry moves
/// to the front and the entries ahead of it move down one slot.
pub fn promote<T: Copy>(slots: &mut [T], pos: usize) {
    let hit = slots[pos];
    slots.copy_within(..pos, 1);
    slots[0] = hit;
}

/// The victim selection the TLBs used before choosing in place: over a
/// built list of `(lru_rank, coalesced_len)` candidates, returning an
/// index into that list. Kept as the reference the structures' model
/// tests replay.
#[cfg(test)]
pub(crate) fn reference_victim(policy: ReplacementPolicy, entries: &[(usize, u64)]) -> usize {
    assert!(!entries.is_empty(), "victim selection needs candidates");
    match policy {
        ReplacementPolicy::Lru => entries
            .iter()
            .enumerate()
            .max_by_key(|(_, &(rank, _))| rank)
            .map(|(i, _)| i)
            .expect("non-empty"),
        ReplacementPolicy::SmallestCoalescedFirst => entries
            .iter()
            .enumerate()
            .min_by_key(|(_, &(rank, len))| (len, usize::MAX - rank))
            .map(|(i, _)| i)
            .expect("non-empty"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_picks_stalest() {
        // Resident lengths MRU first: rank 3 is stalest.
        assert_eq!(ReplacementPolicy::Lru.choose_victim([8, 1, 2, 4], 0..0), 3);
    }

    #[test]
    fn coalesced_first_prefers_small_entries() {
        // The singleton at rank 1 goes first even though rank 3 is staler.
        assert_eq!(
            ReplacementPolicy::SmallestCoalescedFirst.choose_victim([8, 1, 2, 4], 0..0),
            1
        );
    }

    #[test]
    fn coalesced_first_breaks_ties_by_staleness() {
        // Two singletons: the staler one (rank 2) goes.
        assert_eq!(
            ReplacementPolicy::SmallestCoalescedFirst.choose_victim([4, 1, 1], 0..0),
            2
        );
    }

    #[test]
    fn kept_ranks_are_never_victims() {
        assert_eq!(ReplacementPolicy::Lru.choose_victim([8, 1, 2, 4], 2..4), 1);
        assert_eq!(
            ReplacementPolicy::SmallestCoalescedFirst.choose_victim([8, 1, 2, 4], 1..2),
            2
        );
    }

    #[test]
    fn promote_moves_the_hit_to_the_front() {
        let mut slots = [1, 2, 3, 4, 5];
        promote(&mut slots, 3);
        assert_eq!(slots, [4, 1, 2, 3, 5]);
        promote(&mut slots, 0);
        assert_eq!(slots, [4, 1, 2, 3, 5]);
    }

    #[test]
    fn in_place_choice_matches_the_candidate_list() {
        let policies = [ReplacementPolicy::Lru, ReplacementPolicy::SmallestCoalescedFirst];
        for policy in policies {
            for n in 1..7usize {
                for code in 0..4usize.pow(n as u32) {
                    let lens: Vec<u64> = (0..n).map(|i| 1 << ((code >> (2 * i)) & 3)).collect();
                    for kept in [0..0, 0..1, 1..2, n - 1..n] {
                        let candidates: Vec<(usize, u64)> = (0..n)
                            .filter(|rank| !kept.contains(rank))
                            .map(|rank| (rank, lens[rank]))
                            .collect();
                        if candidates.is_empty() {
                            continue;
                        }
                        assert_eq!(
                            policy.choose_victim(lens.iter().copied(), kept.clone()),
                            candidates[reference_victim(policy, &candidates)].0,
                            "{policy:?} over {lens:?} keeping {kept:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "candidates")]
    fn empty_candidates_panic() {
        ReplacementPolicy::Lru.choose_victim([1], 0..1);
    }
}
