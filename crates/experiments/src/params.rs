//! Shared run parameters.
//!
//! All `JSN_*` environment knobs are parsed here. Malformed values are
//! never silently ignored: the parser reports exactly what it rejected so
//! a typo (`JSN_MEASURE=2m`) cannot quietly run with defaults the user
//! did not ask for.

/// Instruction budgets for one application run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunParams {
    /// Instructions executed before statistics are reset (cache/MNM
    /// warmup, the reproduction's stand-in for the paper's SimPoint
    /// fast-forward).
    pub warmup: u64,
    /// Instructions measured after warmup.
    pub measure: u64,
}

impl RunParams {
    /// Default budgets: 300 k warmup + 2 M measured.
    pub fn standard() -> Self {
        RunParams { warmup: 300_000, measure: 2_000_000 }
    }

    /// Tiny budgets for smoke tests and benches.
    pub fn quick() -> Self {
        RunParams { warmup: 20_000, measure: 100_000 }
    }

    /// Standard budgets overridden by the `JSN_WARMUP` and `JSN_MEASURE`
    /// environment variables (instruction counts; `_` separators
    /// allowed). A malformed value is rejected with a message naming the
    /// variable and the offending text.
    pub fn try_from_env() -> Result<Self, String> {
        let mut p = RunParams { warmup: Self::try_warmup_from_env()?, ..Self::standard() };
        if let Some(m) = parse_env_u64("JSN_MEASURE", read_env("JSN_MEASURE").as_deref())? {
            p.measure = m.max(1);
        }
        Ok(p)
    }

    /// The warm-up alone: `JSN_WARMUP`, or the standard one when unset.
    /// For commands whose measured budget comes from a flag.
    pub fn try_warmup_from_env() -> Result<u64, String> {
        let w = parse_env_u64("JSN_WARMUP", read_env("JSN_WARMUP").as_deref())?;
        Ok(w.unwrap_or(Self::standard().warmup))
    }

    /// Total instructions driven per run.
    pub fn total(&self) -> u64 {
        self.warmup + self.measure
    }
}

impl Default for RunParams {
    fn default() -> Self {
        Self::standard()
    }
}

fn read_env(name: &str) -> Option<String> {
    std::env::var(name).ok()
}

/// Parse one optional numeric knob. `None`/empty means "not set"; a set
/// but malformed value is an error naming the variable.
fn parse_env_u64(name: &str, value: Option<&str>) -> Result<Option<u64>, String> {
    let Some(raw) = value else { return Ok(None) };
    if raw.trim().is_empty() {
        return Ok(None);
    }
    raw.trim()
        .replace('_', "")
        .parse::<u64>()
        .map(Some)
        .map_err(|_| format!("{name}={raw}: expected an unsigned instruction count"))
}

/// Worker-thread count for the parallel runner: `JSN_THREADS` or the
/// machine's available parallelism. A malformed or zero `JSN_THREADS`
/// prints the error and exits with status 2.
pub fn worker_threads() -> usize {
    match try_worker_threads() {
        Ok(n) => n,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
}

/// [`worker_threads`] with the error reported instead of exiting.
pub fn try_worker_threads() -> Result<usize, String> {
    worker_threads_from(read_env("JSN_THREADS").as_deref())
}

fn worker_threads_from(value: Option<&str>) -> Result<usize, String> {
    match parse_env_u64("JSN_THREADS", value)? {
        Some(0) => Err("JSN_THREADS=0: need at least one worker".to_owned()),
        Some(n) => Ok(usize::try_from(n).unwrap_or(usize::MAX)),
        None => Ok(std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_totals() {
        let p = RunParams::standard();
        assert_eq!(p.total(), 2_300_000);
        assert_eq!(RunParams::default(), p);
    }

    #[test]
    fn quick_is_smaller() {
        assert!(RunParams::quick().total() < RunParams::standard().total());
    }

    #[test]
    fn workers_are_positive() {
        assert!(worker_threads() >= 1);
    }

    #[test]
    fn unset_and_empty_knobs_mean_default() {
        assert_eq!(parse_env_u64("JSN_WARMUP", None), Ok(None));
        assert_eq!(parse_env_u64("JSN_WARMUP", Some("")), Ok(None));
        assert_eq!(parse_env_u64("JSN_WARMUP", Some("  ")), Ok(None));
    }

    #[test]
    fn well_formed_knobs_parse_with_separators() {
        assert_eq!(parse_env_u64("JSN_MEASURE", Some("2_000_000")), Ok(Some(2_000_000)));
        assert_eq!(parse_env_u64("JSN_MEASURE", Some(" 500000 ")), Ok(Some(500_000)));
    }

    #[test]
    fn malformed_knobs_are_rejected_loudly() {
        for bad in ["2m", "-5", "1e6", "lots", "3.5"] {
            let err = parse_env_u64("JSN_WARMUP", Some(bad)).unwrap_err();
            assert!(err.contains("JSN_WARMUP"), "error names the variable: {err}");
            assert!(err.contains(bad), "error shows the value: {err}");
        }
    }

    /// `try_from_env` surfaces malformed values instead of ignoring them
    /// (the pre-fix behaviour ran with defaults). The env mutation is
    /// confined to one test to avoid cross-test races.
    #[test]
    fn try_from_env_round_trips_the_process_environment() {
        std::env::set_var("JSN_WARMUP", "12_500");
        let p = RunParams::try_from_env().unwrap();
        assert_eq!(p.warmup, 12_500);
        std::env::set_var("JSN_WARMUP", "bogus");
        assert!(RunParams::try_from_env().is_err());
        std::env::remove_var("JSN_WARMUP");
        assert_eq!(RunParams::try_from_env().unwrap(), RunParams::standard());
    }

    #[test]
    fn thread_knob_rejects_zero_and_garbage() {
        assert!(worker_threads_from(Some("0")).unwrap_err().contains("at least one"));
        assert!(worker_threads_from(Some("two")).unwrap_err().contains("JSN_THREADS"));
        assert_eq!(worker_threads_from(Some("6")), Ok(6));
        assert!(worker_threads_from(None).unwrap() >= 1);
    }
}
