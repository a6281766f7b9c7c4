//! Phase-timing statistics (the basis of the paper's Fig 1 breakdown).

use std::time::{Duration, Instant};

/// The phases of a shared-memory MapReduce invocation.
///
/// RAMR fuses map and combine into one overlapped phase; the baseline runs
/// them inline on the same worker. Either way the wall-clock interval from
/// first map task to last combined element is attributed to
/// [`PhaseKind::MapCombine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PhaseKind {
    /// Input partitioning into tasks.
    Partition,
    /// Map + combine (overlapped in RAMR, serialized in the baseline).
    MapCombine,
    /// Per-partition reduction of combined values.
    Reduce,
    /// Final key-sorted merge of reducer outputs.
    Merge,
}

impl PhaseKind {
    /// All phases in execution order.
    pub const ALL: [PhaseKind; 4] =
        [PhaseKind::Partition, PhaseKind::MapCombine, PhaseKind::Reduce, PhaseKind::Merge];
}

impl std::fmt::Display for PhaseKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            PhaseKind::Partition => "partition",
            PhaseKind::MapCombine => "map-combine",
            PhaseKind::Reduce => "reduce",
            PhaseKind::Merge => "merge",
        };
        f.write_str(s)
    }
}

/// Wall-clock and counter statistics for one job invocation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PhaseStats {
    /// Time spent partitioning the input.
    pub partition: Duration,
    /// Time spent in the (possibly overlapped) map-combine phase.
    pub map_combine: Duration,
    /// Time spent reducing.
    pub reduce: Duration,
    /// Time spent merging.
    pub merge: Duration,
    /// Map tasks the input was split into, skipped poison tasks included.
    pub tasks: u64,
    /// Intermediate pairs emitted by map functions.
    pub emitted: u64,
    /// Distinct keys in the final output.
    pub output_keys: u64,
}

impl PhaseStats {
    /// Total measured wall-clock time across all phases.
    pub fn total(&self) -> Duration {
        self.partition + self.map_combine + self.reduce + self.merge
    }

    /// Fraction of total time spent in a phase, in `[0, 1]`.
    ///
    /// Returns zero when no time has been recorded at all.
    pub fn fraction(&self, phase: PhaseKind) -> f64 {
        let total = self.total().as_secs_f64();
        if total == 0.0 {
            return 0.0;
        }
        let t = match phase {
            PhaseKind::Partition => self.partition,
            PhaseKind::MapCombine => self.map_combine,
            PhaseKind::Reduce => self.reduce,
            PhaseKind::Merge => self.merge,
        };
        t.as_secs_f64() / total
    }

    /// Integer percentage shares per phase (in [`PhaseKind::ALL`] order)
    /// that always sum to exactly 100 (or 0 when nothing was recorded).
    ///
    /// Uses largest-remainder apportionment: rounding each share
    /// independently can print totals anywhere from 97% to 102%, which
    /// reads as a bug in every breakdown line. Floors are assigned first,
    /// then the leftover percentage points go to the phases with the
    /// largest fractional remainders (ties broken by phase order).
    fn percent_shares(&self) -> [u64; 4] {
        let total = self.total().as_nanos();
        let mut shares = [0u64; 4];
        if total == 0 {
            return shares;
        }
        let parts =
            [self.partition, self.map_combine, self.reduce, self.merge].map(|d| d.as_nanos());
        let mut remainders: [(u128, usize); 4] = [(0, 0); 4];
        let mut assigned = 0u64;
        for (i, &part) in parts.iter().enumerate() {
            let scaled = part * 100;
            shares[i] = (scaled / total) as u64;
            remainders[i] = (scaled % total, i);
            assigned += shares[i];
        }
        // Stable by remainder descending; index order breaks ties.
        remainders.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        for &(_, i) in remainders.iter().take((100 - assigned) as usize) {
            shares[i] += 1;
        }
        shares
    }

    /// Records a duration against a phase.
    pub fn record(&mut self, phase: PhaseKind, elapsed: Duration) {
        match phase {
            PhaseKind::Partition => self.partition += elapsed,
            PhaseKind::MapCombine => self.map_combine += elapsed,
            PhaseKind::Reduce => self.reduce += elapsed,
            PhaseKind::Merge => self.merge += elapsed,
        }
    }
}

/// RAII-style helper measuring one phase.
///
/// ```
/// use mr_core::{PhaseKind, PhaseStats, PhaseTimer};
///
/// let mut stats = PhaseStats::default();
/// let timer = PhaseTimer::start(PhaseKind::Reduce);
/// // ... do the reduce work ...
/// timer.stop(&mut stats);
/// assert!(stats.reduce >= std::time::Duration::ZERO);
/// ```
#[derive(Debug)]
pub struct PhaseTimer {
    phase: PhaseKind,
    started: Instant,
}

impl PhaseTimer {
    /// Starts timing `phase` now.
    pub fn start(phase: PhaseKind) -> Self {
        Self { phase, started: Instant::now() }
    }

    /// Stops the timer, accumulating the elapsed time into `stats`.
    pub fn stop(self, stats: &mut PhaseStats) {
        stats.record(self.phase, self.started.elapsed());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fractions_sum_to_one_when_nonzero() {
        let mut s = PhaseStats::default();
        s.record(PhaseKind::Partition, Duration::from_millis(10));
        s.record(PhaseKind::MapCombine, Duration::from_millis(70));
        s.record(PhaseKind::Reduce, Duration::from_millis(15));
        s.record(PhaseKind::Merge, Duration::from_millis(5));
        let sum: f64 = PhaseKind::ALL.iter().map(|&p| s.fraction(p)).sum();
        assert!((sum - 1.0).abs() < 1e-9);
        assert!((s.fraction(PhaseKind::MapCombine) - 0.7).abs() < 1e-9);
        assert_eq!(s.total(), Duration::from_millis(100));
    }

    #[test]
    fn empty_stats_have_zero_fractions() {
        let s = PhaseStats::default();
        for p in PhaseKind::ALL {
            assert_eq!(s.fraction(p), 0.0);
        }
    }

    #[test]
    fn record_accumulates() {
        let mut s = PhaseStats::default();
        s.record(PhaseKind::Reduce, Duration::from_millis(5));
        s.record(PhaseKind::Reduce, Duration::from_millis(5));
        assert_eq!(s.reduce, Duration::from_millis(10));
    }

    #[test]
    fn timer_records_positive_duration() {
        let mut s = PhaseStats::default();
        let t = PhaseTimer::start(PhaseKind::Merge);
        std::thread::sleep(Duration::from_millis(1));
        t.stop(&mut s);
        assert!(s.merge >= Duration::from_millis(1));
    }

    #[test]
    fn phase_display_names() {
        let names: Vec<String> = PhaseKind::ALL.iter().map(|p| p.to_string()).collect();
        assert_eq!(names, ["partition", "map-combine", "reduce", "merge"]);
    }
}

impl std::fmt::Display for PhaseStats {
    /// One-line breakdown: total plus per-phase share, e.g.
    /// `12.3ms (partition 1%, map-combine 86%, reduce 9%, merge 4%)`.
    /// Shares are apportioned by largest remainder, so they always sum to
    /// 100.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let [partition, map_combine, reduce, merge] = self.percent_shares();
        write!(
            f,
            "{:.1?} (partition {partition}%, map-combine {map_combine}%, reduce {reduce}%, \
             merge {merge}%)",
            self.total(),
        )
    }
}

#[cfg(test)]
mod display_tests {
    use super::*;

    #[test]
    fn stats_display_shows_shares() {
        let mut s = PhaseStats::default();
        s.record(PhaseKind::MapCombine, Duration::from_millis(80));
        s.record(PhaseKind::Reduce, Duration::from_millis(20));
        let rendered = s.to_string();
        assert!(rendered.contains("map-combine 80%"), "{rendered}");
        assert!(rendered.contains("reduce 20%"), "{rendered}");
    }

    /// Regression: rounding each share independently printed totals of
    /// 97–102%. Three phases at exactly 1/3 each used to render as
    /// 33+33+33 = 99%; pathological near-half splits overshot to 102%.
    #[test]
    fn displayed_shares_always_sum_to_100() {
        let cases: [[u64; 4]; 6] = [
            [1, 1, 1, 0],           // thirds: naive rounding sums to 99
            [125, 125, 125, 625],   // three .5 remainders: naive hits 102
            [333, 333, 334, 0],     // barely uneven thirds
            [997, 1, 1, 1],         // tiny tails must not vanish the total
            [1, 0, 0, 0],           // single phase
            [49_999, 50_001, 0, 0], // near-even pair
        ];
        for durations in cases {
            let mut s = PhaseStats::default();
            for (phase, &ms) in PhaseKind::ALL.iter().zip(durations.iter()) {
                s.record(*phase, Duration::from_micros(ms));
            }
            let shares = s.percent_shares();
            assert_eq!(shares.iter().sum::<u64>(), 100, "{durations:?} -> {shares:?}");
        }
    }

    #[test]
    fn largest_remainder_favors_biggest_fraction() {
        let mut s = PhaseStats::default();
        // 1/3, 1/3, 1/3 + eps: the phase with the largest remainder gets
        // the leftover point; with exact ties, earlier phases win.
        s.record(PhaseKind::Partition, Duration::from_nanos(333));
        s.record(PhaseKind::MapCombine, Duration::from_nanos(333));
        s.record(PhaseKind::Reduce, Duration::from_nanos(334));
        assert_eq!(s.percent_shares(), [33, 33, 34, 0]);
    }

    #[test]
    fn empty_stats_render_zero_shares() {
        assert_eq!(PhaseStats::default().percent_shares(), [0, 0, 0, 0]);
    }
}
