//! Append-only checkpoint journal for `jsn run-all`.
//!
//! The sweep writes one JSONL line per *completed* job (tables included),
//! fsynced, so a killed run loses at most the job in flight. `run-all
//! --resume <dir>` replays completed entries from the journal instead of
//! re-running them; the resumed sweep converges to byte-for-byte the same
//! tables an uninterrupted run produces, because the tables themselves are
//! journaled, not recomputed.
//!
//! Crash tolerance is asymmetric by design: a torn FINAL line is the
//! expected signature of a kill mid-append and is dropped (with a
//! warning), but garbage in the middle of the file means something other
//! than a crash happened to it — that is a hard error, not a shrug.

use std::io::Write as _;
use std::path::{Path, PathBuf};

use crate::json::Json;
use crate::params::RunParams;
use crate::report::Table;
use crate::supervisor::JobReport;

/// Schema tag of the journal header line.
pub const SCHEMA: &str = "jsn-journal/v1";

/// File name inside the output directory.
pub const FILE_NAME: &str = "journal.jsonl";

/// One completed job: its report and every table it produced.
#[derive(Debug, Clone, PartialEq)]
pub struct JobEntry {
    /// Job name (matches the sweep's job list).
    pub job: String,
    /// Total wall time of the job in milliseconds.
    pub wall_ms: u64,
    /// The supervisor's attempt record.
    pub report: JobReport,
    /// `(experiment name, table)` pairs the job produced.
    pub tables: Vec<(String, Table)>,
}

impl JobEntry {
    /// One JSONL line (compact rendering, no interior newlines).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("job", Json::str(&self.job)),
            ("wall_ms", Json::num(self.wall_ms as f64)),
            ("report", self.report.to_json()),
            (
                "tables",
                Json::Arr(
                    self.tables
                        .iter()
                        .map(|(name, t)| {
                            Json::obj(vec![("name", Json::str(name)), ("table", t.to_json())])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Parse one journal line back.
    pub fn from_json(v: &Json) -> Result<JobEntry, String> {
        let job =
            v.get("job").and_then(Json::as_str).ok_or("journal entry: missing `job`")?.to_owned();
        let wall_ms =
            v.get("wall_ms").and_then(Json::as_f64).ok_or("journal entry: missing `wall_ms`")?
                as u64;
        let report =
            JobReport::from_json(v.get("report").ok_or("journal entry: missing `report`")?)?;
        let mut tables = Vec::new();
        for t in v.get("tables").and_then(Json::as_arr).ok_or("journal entry: missing `tables`")? {
            let name = t
                .get("name")
                .and_then(Json::as_str)
                .ok_or("journal entry: table missing `name`")?;
            let table = Table::from_json(t.get("table").ok_or("journal entry: missing `table`")?)?;
            tables.push((name.to_owned(), table));
        }
        Ok(JobEntry { job, wall_ms, report, tables })
    }
}

/// A journal read back from disk.
#[derive(Debug)]
pub struct LoadedJournal {
    /// Run parameters the journaled jobs were computed with.
    pub params: RunParams,
    /// Completed entries, in completion order.
    pub entries: Vec<JobEntry>,
    /// Whether a torn final line (kill mid-append) was dropped.
    pub truncated_tail: bool,
}

impl LoadedJournal {
    /// The entry for `job`, if it completed.
    pub fn entry(&self, job: &str) -> Option<&JobEntry> {
        self.entries.iter().find(|e| e.job == job)
    }
}

/// Appends fsynced JSONL lines to the journal file.
#[derive(Debug)]
pub struct JournalWriter {
    file: std::fs::File,
    path: PathBuf,
}

/// Path of the journal inside `dir`.
pub fn journal_path(dir: &Path) -> PathBuf {
    dir.join(FILE_NAME)
}

impl JournalWriter {
    /// Start a fresh journal (truncating any previous one) with a header
    /// line recording the run parameters.
    pub fn create(dir: &Path, params: RunParams) -> std::io::Result<JournalWriter> {
        let path = journal_path(dir);
        let mut file = std::fs::File::create(&path)?;
        let header = Json::obj(vec![
            ("schema", Json::str(SCHEMA)),
            ("warmup", Json::num(params.warmup as f64)),
            ("measure", Json::num(params.measure as f64)),
        ]);
        file.write_all(header.render().as_bytes())?;
        file.write_all(b"\n")?;
        file.sync_data()?;
        Ok(JournalWriter { file, path })
    }

    /// Reopen an existing journal for appending (resume). If the previous
    /// run died mid-append, the torn tail is cut off first so the file
    /// stays line-clean.
    pub fn open_resume(dir: &Path) -> std::io::Result<JournalWriter> {
        let path = journal_path(dir);
        let text = std::fs::read_to_string(&path)?;
        // Keep everything up to (and including) the last newline; a torn
        // tail has none.
        let keep = text.rfind('\n').map_or(0, |i| i + 1);
        if keep < text.len() {
            let file = std::fs::OpenOptions::new().write(true).open(&path)?;
            file.set_len(keep as u64)?;
        }
        let file = std::fs::OpenOptions::new().append(true).open(&path)?;
        Ok(JournalWriter { file, path })
    }

    /// Append one completed job, fsynced before returning — once this
    /// returns, a kill cannot lose the entry.
    pub fn append(&mut self, entry: &JobEntry) -> std::io::Result<()> {
        self.file.write_all(entry.to_json().render().as_bytes())?;
        self.file.write_all(b"\n")?;
        self.file.sync_data()
    }

    /// The journal file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Delete the journal (called when the sweep completes cleanly; a
    /// surviving journal is the marker of an interrupted or failed run).
    pub fn remove(self) -> std::io::Result<()> {
        drop(self.file);
        std::fs::remove_file(&self.path)
    }
}

/// Load the journal in `dir`. `Ok(None)` when there is none; a torn final
/// line is dropped (flagged in `truncated_tail`); anything else malformed
/// is a hard error.
pub fn load(dir: &Path) -> Result<Option<LoadedJournal>, String> {
    let path = journal_path(dir);
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(format!("cannot read {}: {e}", path.display())),
    };

    let mut lines: Vec<&str> = text.split('\n').collect();
    // A well-formed file ends with '\n', leaving one empty trailing piece.
    let ends_clean = lines.last() == Some(&"");
    if ends_clean {
        lines.pop();
    }

    let mut truncated_tail = false;
    let mut parsed: Vec<Json> = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        match Json::parse(line) {
            Ok(v) => parsed.push(v),
            Err(e) => {
                let is_last = i + 1 == lines.len();
                if is_last && !ends_clean {
                    truncated_tail = true;
                } else {
                    return Err(format!(
                        "{}: line {} is corrupt (not a torn tail): {e}",
                        path.display(),
                        i + 1
                    ));
                }
            }
        }
    }

    let Some(header) = parsed.first() else {
        return Err(format!("{}: empty journal", path.display()));
    };
    match header.get("schema").and_then(Json::as_str) {
        Some(SCHEMA) => {}
        other => {
            return Err(format!("{}: unsupported journal schema {other:?}", path.display()));
        }
    }
    let warmup = header.get("warmup").and_then(Json::as_f64).ok_or("journal header: warmup")?;
    let measure = header.get("measure").and_then(Json::as_f64).ok_or("journal header: measure")?;
    let params = RunParams { warmup: warmup as u64, measure: measure as u64 };

    let mut entries = Vec::new();
    for (i, v) in parsed.iter().enumerate().skip(1) {
        entries.push(
            JobEntry::from_json(v)
                .map_err(|e| format!("{}: line {}: {e}", path.display(), i + 1))?,
        );
    }
    Ok(Some(LoadedJournal { params, entries, truncated_tail }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::supervisor::{AttemptOutcome, AttemptRecord};

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("jsn-journal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn entry(job: &str) -> JobEntry {
        let mut t = Table::new("T", "app", &["a".to_owned()]);
        t.push_row("gzip", vec![1.25]);
        JobEntry {
            job: job.to_owned(),
            wall_ms: 12,
            report: JobReport {
                name: job.to_owned(),
                attempts: vec![AttemptRecord { outcome: AttemptOutcome::Ok, wall_ms: 12 }],
            },
            tables: vec![(job.to_owned(), t)],
        }
    }

    #[test]
    fn write_then_load_round_trips() {
        let dir = tmp_dir("rt");
        let params = RunParams { warmup: 100, measure: 500 };
        let mut w = JournalWriter::create(&dir, params).unwrap();
        w.append(&entry("job_a")).unwrap();
        w.append(&entry("job_b")).unwrap();

        let loaded = load(&dir).unwrap().unwrap();
        assert_eq!(loaded.params, params);
        assert_eq!(loaded.entries.len(), 2);
        assert!(!loaded.truncated_tail);
        assert_eq!(loaded.entry("job_b").unwrap(), &entry("job_b"));
        assert!(loaded.entry("job_c").is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_journal_is_none() {
        let dir = tmp_dir("none");
        assert!(load(&dir).unwrap().is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_dropped_with_flag() {
        let dir = tmp_dir("torn");
        let mut w = JournalWriter::create(&dir, RunParams { warmup: 1, measure: 2 }).unwrap();
        w.append(&entry("done")).unwrap();
        // Simulate a kill mid-append: garbage with no trailing newline.
        let path = journal_path(&dir);
        let mut f = std::fs::OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"job\":\"half-writ").unwrap();
        drop(f);

        let loaded = load(&dir).unwrap().unwrap();
        assert!(loaded.truncated_tail);
        assert_eq!(loaded.entries.len(), 1);

        // Resume truncates the torn tail and appends cleanly after it.
        let mut w = JournalWriter::open_resume(&dir).unwrap();
        w.append(&entry("next")).unwrap();
        let loaded = load(&dir).unwrap().unwrap();
        assert!(!loaded.truncated_tail);
        assert_eq!(loaded.entries.len(), 2);
        assert_eq!(loaded.entries[1].job, "next");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A tail nested past the JSON depth limit is malformed like any other
    /// torn line: dropped, not a stack overflow.
    #[test]
    fn deeply_nested_tail_is_dropped() {
        let dir = tmp_dir("deep");
        let mut w = JournalWriter::create(&dir, RunParams { warmup: 1, measure: 2 }).unwrap();
        w.append(&entry("done")).unwrap();
        let mut f = std::fs::OpenOptions::new().append(true).open(journal_path(&dir)).unwrap();
        f.write_all("[".repeat(1_000_000).as_bytes()).unwrap();
        drop(f);

        let loaded = load(&dir).unwrap().unwrap();
        assert!(loaded.truncated_tail);
        assert_eq!(loaded.entries.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mid_file_corruption_is_a_hard_error() {
        let dir = tmp_dir("midcorrupt");
        let mut w = JournalWriter::create(&dir, RunParams { warmup: 1, measure: 2 }).unwrap();
        w.append(&entry("a")).unwrap();
        w.append(&entry("b")).unwrap();
        let path = journal_path(&dir);
        let text = std::fs::read_to_string(&path).unwrap();
        // Clobber the middle line, keep the file newline-terminated.
        let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
        lines[1] = "NOT JSON".to_owned();
        std::fs::write(&path, lines.join("\n") + "\n").unwrap();

        let err = load(&dir).unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        assert!(err.contains("not a torn tail"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wrong_schema_is_rejected() {
        let dir = tmp_dir("schema");
        std::fs::write(journal_path(&dir), "{\"schema\":\"jsn-journal/v9\"}\n").unwrap();
        assert!(load(&dir).unwrap_err().contains("unsupported"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn remove_deletes_the_file() {
        let dir = tmp_dir("rm");
        let w = JournalWriter::create(&dir, RunParams { warmup: 1, measure: 2 }).unwrap();
        assert!(journal_path(&dir).exists());
        w.remove().unwrap();
        assert!(!journal_path(&dir).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
