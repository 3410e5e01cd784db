//! Deterministic fault injection for supervised experiment runs.
//!
//! A [`FaultPlan`] — parsed from the `JSN_FAULT` environment variable —
//! decides, purely as a function of `(seed, fault kind, site)`, whether a
//! fault fires at a given site. Sites are stable string identities: job
//! names for panics and stalls, artifact file names for torn writes, and
//! `{filter}:{generator}:{seed}` scenario labels for filter-state bit
//! flips. Re-running with the same plan injects exactly the same faults,
//! which is what makes the recovery tests and the CI fault-smoke job
//! reproducible.
//!
//! Faults are deliberately *one-shot* per site: panics and stalls fire only
//! on a job's first attempt, and a torn write fires only on the first write
//! of a given file. One retry therefore deterministically recovers, letting
//! the tests assert "every injected fault recovered" rather than "the run
//! eventually gave up".
//!
//! The plan lives in process-global state (`install`) because the injection
//! points are buried under the supervisor's job closures and the atomic
//! write helper, far from anywhere a handle could be threaded through.
//! Everything injected is logged so the run manifest can report it.

use std::sync::Mutex;

use trace_synth::rng::{fnv1a, splitmix64};

use crate::json::Json;

/// Environment variable holding the fault plan.
pub const ENV_FAULT: &str = "JSN_FAULT";

/// Default stall duration when a `stall` clause gives no `:ms` suffix —
/// comfortably past any reasonable `--deadline`.
const DEFAULT_STALL_MS: u64 = 30_000;

/// The kinds of fault the plan can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic inside the job closure (supervisor must isolate + retry).
    Panic,
    /// Sleep past the job deadline (watchdog must time the attempt out).
    Stall,
    /// Abort an artifact write halfway (atomic writer must leave no trace).
    Torn,
    /// Flip a bit of MNM filter state (soundness checker must catch it).
    Flip,
}

impl FaultKind {
    /// Stable name, used both for selection hashing and reporting.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Panic => "panic",
            FaultKind::Stall => "stall",
            FaultKind::Torn => "torn",
            FaultKind::Flip => "flip",
        }
    }
}

/// How a fault kind chooses its victim sites.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Select {
    /// Never fires (kind absent from the plan).
    Never,
    /// Fires at roughly `m` out of `n` sites, chosen by seeded hash.
    Ratio(u64, u64),
    /// Fires at exactly one named site.
    Site(String),
}

impl Select {
    fn selects(&self, seed: u64, kind: FaultKind, site: &str) -> bool {
        match self {
            Select::Never => false,
            Select::Site(s) => s == site,
            Select::Ratio(m, n) => {
                let h = splitmix64(seed ^ fnv1a(kind.name()) ^ fnv1a(site));
                h % n < *m
            }
        }
    }

    fn describe(&self) -> String {
        match self {
            Select::Never => "off".to_owned(),
            Select::Ratio(m, n) => format!("{m}/{n}"),
            Select::Site(s) => format!("@{s}"),
        }
    }
}

/// A parsed `JSN_FAULT` plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    panic: Select,
    stall: Select,
    stall_ms: u64,
    torn: Select,
    flip: Select,
}

impl FaultPlan {
    /// Parse a plan like `seed=42,panic=1/8,stall=1/6:250,torn=1/2,flip=1/4`.
    ///
    /// Each fault clause takes either an `m/n` ratio (fire at ~m of n
    /// sites) or a literal site name (fire exactly there). `stall` accepts
    /// a trailing `:ms` duration. `seed` defaults to 0.
    ///
    /// Parsing is strict: unknown or duplicate clauses, selectors that
    /// look like ratios but are not, and malformed stall durations are all
    /// hard errors. A long-running process armed with a subtly-wrong plan
    /// would otherwise run for hours with faults that silently never fire.
    pub fn parse(input: &str) -> Result<FaultPlan, String> {
        let clauses = PlanClauses::parse(ENV_FAULT, input, &["panic", "stall", "torn", "flip"])?;
        let mut plan = FaultPlan {
            seed: clauses.seed,
            panic: Select::Never,
            stall: Select::Never,
            stall_ms: DEFAULT_STALL_MS,
            torn: Select::Never,
            flip: Select::Never,
        };
        for &(key, value) in &clauses.clauses {
            match key {
                "panic" => plan.panic = parse_select(&clauses, value)?,
                "torn" => plan.torn = parse_select(&clauses, value)?,
                "flip" => plan.flip = parse_select(&clauses, value)?,
                _ => {
                    // Stall sites are job names, which never contain a
                    // colon, so a colon always starts the `:ms` tail.
                    let (sel, ms) = clauses.with_ms(key, value, DEFAULT_STALL_MS)?;
                    plan.stall = parse_select(&clauses, sel)?;
                    plan.stall_ms = ms;
                }
            }
        }
        Ok(plan)
    }

    /// Read the plan from `JSN_FAULT`; `Ok(None)` when unset or empty.
    /// A value that is set but unreadable (non-unicode) or malformed is an
    /// error — never silently ignored.
    pub fn from_env() -> Result<Option<FaultPlan>, String> {
        PlanClauses::env(ENV_FAULT)?.map(|v| FaultPlan::parse(&v)).transpose()
    }

    /// Whether `kind` fires at `site` under this plan.
    pub fn selects(&self, kind: FaultKind, site: &str) -> bool {
        let sel = match kind {
            FaultKind::Panic => &self.panic,
            FaultKind::Stall => &self.stall,
            FaultKind::Torn => &self.torn,
            FaultKind::Flip => &self.flip,
        };
        sel.selects(self.seed, kind, site)
    }

    /// One-line human description for run banners.
    pub fn summary(&self) -> String {
        format!(
            "fault plan: seed={} panic={} stall={} ({}ms) torn={} flip={}",
            self.seed,
            self.panic.describe(),
            self.stall.describe(),
            self.stall_ms,
            self.torn.describe(),
            self.flip.describe(),
        )
    }
}

fn parse_select(clauses: &PlanClauses<'_>, value: &str) -> Result<Select, String> {
    let value = value.trim();
    if value.is_empty() {
        return Err(format!("{ENV_FAULT}: empty fault selector"));
    }
    // Site names (job names, artifact file names, scenario labels) never
    // contain `/`, so a slash means the user meant a ratio; a malformed
    // one (`1/2x`, `a/b`) must not silently become a never-matching site.
    if value.contains('/') {
        let (m, n) = clauses.ratio(value)?;
        return Ok(Select::Ratio(m, n));
    }
    Ok(Select::Site(value.to_owned()))
}

/// The strict clause grammar shared by `JSN_FAULT` and `JSN_CHAOS`:
/// comma-separated `key=value` clauses, an optional `seed=N`, and each
/// other key drawn from a fixed set and given at most once.
///
/// Strictness is the point: a long soak or sweep armed with a plan whose
/// typo silently disabled a fault would run clean and prove nothing.
#[derive(Debug)]
pub struct PlanClauses<'a> {
    env: &'static str,
    /// The `seed` clause (0 when absent).
    pub seed: u64,
    /// Every other clause as `(key, value)`, in input order.
    pub clauses: Vec<(&'a str, &'a str)>,
}

impl<'a> PlanClauses<'a> {
    /// The plan text in environment variable `env`: `Ok(None)` when unset
    /// or blank, an error when set but not unicode.
    pub fn env(env: &str) -> Result<Option<String>, String> {
        match std::env::var(env) {
            Ok(v) if !v.trim().is_empty() => Ok(Some(v)),
            Ok(_) | Err(std::env::VarError::NotPresent) => Ok(None),
            Err(std::env::VarError::NotUnicode(_)) => {
                Err(format!("{env}: value is not valid unicode"))
            }
        }
    }

    /// Split `input` into clauses, rejecting anything not `key=value`,
    /// keys outside `keys` (besides `seed`), duplicates, and a bad seed.
    /// Errors are prefixed with `env`, the variable the plan came from.
    pub fn parse(env: &'static str, input: &'a str, keys: &[&str]) -> Result<Self, String> {
        let mut out = PlanClauses { env, seed: 0, clauses: Vec::new() };
        let mut seen: Vec<&str> = Vec::new();
        for clause in input.split(',').map(str::trim).filter(|c| !c.is_empty()) {
            let (key, value) = clause
                .split_once('=')
                .ok_or_else(|| format!("{env}: clause `{clause}` is not `key=value`"))?;
            let key = key.trim();
            if seen.contains(&key) {
                return Err(format!(
                    "{env}: duplicate `{key}` clause (the first would be silently ignored)"
                ));
            }
            seen.push(key);
            if key == "seed" {
                out.seed =
                    value.trim().parse().map_err(|_| format!("{env}: bad seed `{value}`"))?;
            } else if keys.contains(&key) {
                out.clauses.push((key, value));
            } else {
                return Err(format!("{env}: unknown clause `{key}`"));
            }
        }
        Ok(out)
    }

    /// Parse an `m/n` ratio (fire at ~m of n sites); `n` must be nonzero.
    pub fn ratio(&self, value: &str) -> Result<(u64, u64), String> {
        let env = self.env;
        let value = value.trim();
        let (m, n) = value
            .split_once('/')
            .ok_or_else(|| format!("{env}: selector `{value}` is not an `m/n` ratio"))?;
        let m = m.trim().parse::<u64>();
        let n = n.trim().parse::<u64>();
        match (m, n) {
            (Err(_), _) => Err(format!("{env}: ratio `{value}` has a bad numerator")),
            (_, Err(_)) => Err(format!("{env}: ratio `{value}` has a bad denominator")),
            (_, Ok(0)) => Err(format!("{env}: ratio `{value}` has zero denominator")),
            (Ok(m), Ok(n)) => Ok((m, n)),
        }
    }

    /// Split an optional `:ms` duration tail off `value` (the numeric tail
    /// after the last colon), defaulting to `default_ms`. A tail that is
    /// not a millisecond count is an error, not part of the selector.
    pub fn with_ms(
        &self,
        key: &str,
        value: &'a str,
        default_ms: u64,
    ) -> Result<(&'a str, u64), String> {
        let Some((head, tail)) = value.rsplit_once(':') else {
            return Ok((value, default_ms));
        };
        let ms = tail.trim().parse::<u64>().map_err(|_| {
            format!("{}: {key} duration `{tail}` is not a millisecond count", self.env)
        })?;
        Ok((head, ms))
    }
}

/// One fault the plan actually fired, for the run manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectedFault {
    /// Fault kind name (`panic` / `stall` / `torn` / `flip`).
    pub kind: &'static str,
    /// The site it fired at.
    pub site: String,
}

impl InjectedFault {
    /// JSON form for the manifest's `injected_faults` array.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![("kind", Json::str(self.kind)), ("site", Json::str(&self.site))])
    }
}

static ACTIVE: Mutex<Option<FaultPlan>> = Mutex::new(None);
static INJECTED: Mutex<Vec<InjectedFault>> = Mutex::new(Vec::new());
static TORN_FIRED: Mutex<Vec<String>> = Mutex::new(Vec::new());

/// Install (or with `None`, clear) the process-wide plan. Resets the
/// injected-fault log and the torn-write once-per-site registry.
pub fn install(plan: Option<FaultPlan>) {
    *ACTIVE.lock().unwrap() = plan;
    INJECTED.lock().unwrap().clear();
    TORN_FIRED.lock().unwrap().clear();
}

/// The currently installed plan, if any.
pub fn active() -> Option<FaultPlan> {
    ACTIVE.lock().unwrap().clone()
}

/// Everything injected since the last `install`.
pub fn injected() -> Vec<InjectedFault> {
    INJECTED.lock().unwrap().clone()
}

fn record(kind: FaultKind, site: &str) {
    INJECTED.lock().unwrap().push(InjectedFault { kind: kind.name(), site: site.to_owned() });
}

/// Hook run at the top of every supervised job attempt. Fires stalls and
/// panics — on the first attempt only, so a single retry recovers.
pub fn before_job(site: &str, attempt: u32) {
    if attempt != 0 {
        return;
    }
    let Some(plan) = active() else { return };
    if plan.selects(FaultKind::Stall, site) {
        record(FaultKind::Stall, site);
        eprintln!("fault: stalling job `{site}` for {}ms", plan.stall_ms);
        std::thread::sleep(std::time::Duration::from_millis(plan.stall_ms));
    }
    if plan.selects(FaultKind::Panic, site) {
        record(FaultKind::Panic, site);
        eprintln!("fault: panicking job `{site}`");
        panic!("injected fault: panic at `{site}`");
    }
}

/// Whether the atomic writer should tear THIS write of `site` (a file
/// name). Fires at most once per site, so the retry succeeds.
pub fn torn_write(site: &str) -> bool {
    let Some(plan) = active() else { return false };
    if !plan.selects(FaultKind::Torn, site) {
        return false;
    }
    let mut fired = TORN_FIRED.lock().unwrap();
    if fired.iter().any(|s| s == site) {
        return false;
    }
    fired.push(site.to_owned());
    drop(fired);
    record(FaultKind::Torn, site);
    true
}

/// If the plan flips filter state for this scenario site, the deterministic
/// seed driving the corruption search; `None` otherwise.
pub fn flip_seed(site: &str) -> Option<u64> {
    let plan = active()?;
    if !plan.selects(FaultKind::Flip, site) {
        return None;
    }
    record(FaultKind::Flip, site);
    Some(splitmix64(plan.seed ^ fnv1a("flip-seed") ^ fnv1a(site)))
}

/// Serializes tests (across this crate) that mutate the process-global
/// plan — `cargo test` runs unit tests of one binary concurrently.
#[cfg(test)]
pub(crate) static TEST_LOCK: Mutex<()> = Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_full_grammar() {
        let p = FaultPlan::parse("seed=42, panic=1/8, stall=1/6:250, torn=1/2, flip=1/4").unwrap();
        assert_eq!(p.seed, 42);
        assert_eq!(p.panic, Select::Ratio(1, 8));
        assert_eq!(p.stall, Select::Ratio(1, 6));
        assert_eq!(p.stall_ms, 250);
        assert_eq!(p.torn, Select::Ratio(1, 2));
        assert_eq!(p.flip, Select::Ratio(1, 4));
        assert!(p.summary().contains("panic=1/8"));
    }

    #[test]
    fn site_selectors_hit_exactly_one_site() {
        let p = FaultPlan::parse("panic=fig15_execution_reduction,stall=table2:90").unwrap();
        assert!(p.selects(FaultKind::Panic, "fig15_execution_reduction"));
        assert!(!p.selects(FaultKind::Panic, "fig16_power_reduction"));
        assert!(p.selects(FaultKind::Stall, "table2"));
        assert_eq!(p.stall_ms, 90);
    }

    #[test]
    fn selection_is_deterministic_and_kind_separated() {
        let p = FaultPlan::parse("seed=7,panic=1/2,torn=1/2").unwrap();
        let sites = ["a", "b", "c", "d", "e", "f", "g", "h"];
        let panics: Vec<bool> = sites.iter().map(|s| p.selects(FaultKind::Panic, s)).collect();
        let torns: Vec<bool> = sites.iter().map(|s| p.selects(FaultKind::Torn, s)).collect();
        // Same plan, same answers.
        let again: Vec<bool> = sites.iter().map(|s| p.selects(FaultKind::Panic, s)).collect();
        assert_eq!(panics, again);
        // Different kinds hash differently (overwhelmingly likely to differ
        // across 8 sites at ratio 1/2).
        assert_ne!(panics, torns);
        // A 1/2 ratio hits a nontrivial subset.
        assert!(panics.iter().any(|&b| b) && panics.iter().any(|&b| !b));
    }

    #[test]
    fn seed_changes_the_selection() {
        let a = FaultPlan::parse("seed=1,panic=1/2").unwrap();
        let b = FaultPlan::parse("seed=2,panic=1/2").unwrap();
        let sites: Vec<String> = (0..64).map(|i| format!("job{i}")).collect();
        let pick = |p: &FaultPlan| -> Vec<bool> {
            sites.iter().map(|s| p.selects(FaultKind::Panic, s)).collect()
        };
        assert_ne!(pick(&a), pick(&b));
    }

    #[test]
    fn rejects_malformed_plans() {
        for bad in ["panic", "wat=1/2", "seed=x", "panic=1/0", "torn="] {
            assert!(FaultPlan::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    /// Misconfigurations that used to silently degrade into selectors
    /// that never fire must now be hard parse errors (a long-running
    /// server would otherwise discover the typo hours in, as a no-op).
    #[test]
    fn rejects_silently_inert_plans() {
        for bad in [
            "panic=1/2x",          // almost-ratio became Site("1/2x")
            "torn=a/b",            // slash always means ratio
            "stall=1/6:25x",       // malformed ms tail became a site name
            "stall=1/6:",          // empty ms tail likewise
            "panic=1/4,panic=1/2", // duplicate clause: first one ignored
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "accepted {bad:?}");
        }
        // The well-formed shapes all still parse.
        assert!(FaultPlan::parse("stall=fig12_tmnm_coverage").is_ok());
        assert!(FaultPlan::parse("stall=fig12_tmnm_coverage:90").is_ok());
        assert!(FaultPlan::parse("stall=1/6:250,panic=1/8").is_ok());
    }

    #[test]
    fn empty_plan_never_fires() {
        let p = FaultPlan::parse("").unwrap();
        for kind in [FaultKind::Panic, FaultKind::Stall, FaultKind::Torn, FaultKind::Flip] {
            assert!(!p.selects(kind, "anything"));
        }
    }

    #[test]
    fn torn_write_fires_once_per_site() {
        let _guard = TEST_LOCK.lock().unwrap();
        install(Some(FaultPlan::parse("torn=1/1").unwrap()));
        assert!(torn_write("all_experiments.json"));
        assert!(!torn_write("all_experiments.json"), "second write must succeed");
        assert!(torn_write("other.json"), "distinct site fires independently");
        let log = injected();
        assert_eq!(log.len(), 2);
        assert!(log.iter().all(|f| f.kind == "torn"));
        install(None);
        assert!(!torn_write("all_experiments.json"));
        assert!(injected().is_empty(), "install clears the log");
    }

    #[test]
    fn before_job_only_fires_on_first_attempt() {
        let _guard = TEST_LOCK.lock().unwrap();
        install(Some(FaultPlan::parse("panic=boom").unwrap()));
        // Attempt 1+ is exempt: must not panic.
        before_job("boom", 1);
        let caught = std::panic::catch_unwind(|| before_job("boom", 0));
        assert!(caught.is_err(), "attempt 0 must panic");
        assert_eq!(injected().len(), 1);
        install(None);
    }

    #[test]
    fn flip_seed_is_stable_per_site() {
        let _guard = TEST_LOCK.lock().unwrap();
        install(Some(FaultPlan::parse("seed=3,flip=1/1").unwrap()));
        let a = flip_seed("TMNM_12x1:aliasing:0x10");
        let b = flip_seed("TMNM_12x1:aliasing:0x10");
        let c = flip_seed("SMNM_13x2:aliasing:0x10");
        assert!(a.is_some());
        assert_eq!(a, b, "same site, same seed");
        assert_ne!(a, c, "different site, different seed");
        install(None);
        assert_eq!(flip_seed("TMNM_12x1:aliasing:0x10"), None);
    }
}
