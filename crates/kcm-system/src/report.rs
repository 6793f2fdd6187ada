//! Human-readable run reports (the Prolog-level monitor of §4's tool set).

use kcm_cpu::profile::{InstrClass, Profile, DEREF_HIST_BUCKETS};
use kcm_cpu::RunStats;

/// Formats a run's statistics as a small report.
///
/// # Examples
///
/// ```
/// use kcm_system::{report, Kcm, QueryOpts};
/// # fn main() -> Result<(), kcm_system::KcmError> {
/// let mut kcm = Kcm::new();
/// kcm.load("p(1).")?;
/// let outcome = kcm.query("p(X)", &QueryOpts::first())?;
/// let text = report::summary(&outcome.stats);
/// assert!(text.contains("cycles"));
/// # Ok(())
/// # }
/// ```
pub fn summary(stats: &RunStats) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "cycles        : {:>12}  ({:.3} ms @ 80 ns)",
        stats.cycles,
        stats.ms()
    );
    let _ = writeln!(out, "instructions  : {:>12}", stats.instructions);
    let _ = writeln!(
        out,
        "inferences    : {:>12}  ({:.0} Klips)",
        stats.inferences,
        stats.klips()
    );
    let _ = writeln!(
        out,
        "choice points : {:>12}  (try entries {}, shallow fails {}, deep fails {})",
        stats.choice_points, stats.shallow_entries, stats.shallow_fails, stats.deep_fails
    );
    let _ = writeln!(out, "trail pushes  : {:>12}", stats.trail_pushes);
    let _ = writeln!(out, "deref links   : {:>12}", stats.deref_links);
    let _ = writeln!(out, "zone growths  : {:>12}", stats.zone_growths);
    let _ = writeln!(
        out,
        "data cache    : {:>12.4} hit ratio ({} hits / {} misses, {} write-backs)",
        stats.mem.dcache_hit_ratio(),
        stats.mem.dcache_hits,
        stats.mem.dcache_misses,
        stats.mem.dcache_writebacks
    );
    let _ = writeln!(
        out,
        "code cache    : {:>12.4} hit ratio ({} hits / {} misses)",
        stats.mem.icache_hit_ratio(),
        stats.mem.icache_hits,
        stats.mem.icache_misses
    );
    let _ = writeln!(
        out,
        "page faults   : {:>12}  (code {})",
        stats.mem.data_page_faults, stats.mem.code_page_faults
    );
    out
}

/// Formats an execution [`Profile`] as a small report: per-class retired
/// counts and cycle shares, MWAC dispatch and switch outcomes, trail
/// checks and the dereference-chain histogram. Backtracks, trail pushes
/// and zone growths are run totals: [`summary`] prints them.
///
/// # Examples
///
/// ```
/// use kcm_system::{report, Kcm, QueryOpts};
/// # fn main() -> Result<(), kcm_system::KcmError> {
/// let mut kcm = Kcm::new();
/// kcm.load("p(1).")?;
/// let outcome = kcm.query("p(X)", &QueryOpts::first())?;
/// let text = report::profile_summary(&outcome.profile);
/// assert!(text.contains("mwac"));
/// # Ok(())
/// # }
/// ```
pub fn profile_summary(profile: &Profile) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let total_cycles = profile.cycles_total();
    let _ = writeln!(
        out,
        "instruction classes ({} retired, {} cycles):",
        profile.retired_total(),
        total_cycles
    );
    for class in InstrClass::ALL {
        let c = profile.class(class);
        if c.retired == 0 {
            continue;
        }
        let share = if total_cycles == 0 {
            0.0
        } else {
            100.0 * c.cycles as f64 / total_cycles as f64
        };
        let _ = writeln!(
            out,
            "  {:<8} : {:>10} retired  {:>12} cycles  ({share:5.1}%)",
            class.name(),
            c.retired,
            c.cycles
        );
    }
    let m = &profile.mwac;
    let _ = writeln!(
        out,
        "mwac dispatch : {:>10}  (bind {}/{}, const {}, list {}, struct {}, clash {})",
        m.total(),
        m.bind_left,
        m.bind_right,
        m.compare_constants,
        m.descend_list,
        m.descend_struct,
        m.clash
    );
    let s = &profile.switches;
    let _ = writeln!(
        out,
        "switch lookups: {:>10}  ({} hits, {} misses, {} probes charged, {} depth-2)",
        s.hits + s.misses,
        s.hits,
        s.misses,
        s.probes,
        s.depth2
    );
    let _ = writeln!(out, "trail checks  : {:>10}", profile.trail_checks);
    let _ = write!(
        out,
        "deref chains  : {:>10}  by length:",
        profile.deref_chains_total()
    );
    for (len, &n) in profile.deref_hist.iter().enumerate() {
        if n == 0 {
            continue;
        }
        if len == DEREF_HIST_BUCKETS - 1 {
            let _ = write!(out, "  {}+:{n}", len);
        } else {
            let _ = write!(out, "  {len}:{n}");
        }
    }
    let _ = writeln!(out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_contains_all_sections() {
        let text = summary(&RunStats::default());
        for key in [
            "cycles",
            "inferences",
            "choice points",
            "zone growths",
            "data cache",
            "page faults",
        ] {
            assert!(text.contains(key), "missing {key}");
        }
    }

    #[test]
    fn profile_summary_contains_all_sections() {
        let text = profile_summary(&Profile::default());
        for key in [
            "instruction classes",
            "mwac",
            "switch lookups",
            "trail checks",
            "deref chains",
        ] {
            assert!(text.contains(key), "missing {key}");
        }
    }
}
