//! The VDC DNA database.
//!
//! Entries are installed when a vulnerability is disclosed (one entry per
//! JITed function of the demonstrator code) and removed when the security
//! patch lands — the database therefore holds only the vulnerabilities in
//! their *vulnerability window*, typically one or two at a time (§VI-D).

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use jitbull_chaos::{FaultInjector, FaultKind, FaultSite};

use crate::dna::Dna;
use crate::error::DbError;

/// How [`DnaDatabase::from_text_checked`] treats malformed entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LoadMode {
    /// Any malformed line aborts the whole load (the default — a corrupt
    /// maintainer update must never be half-applied silently).
    #[default]
    Strict,
    /// Malformed VDC entries are skipped; each skip is collected as a
    /// line-numbered warning in the [`LoadReport`]. The well-formed
    /// remainder still loads — the degraded-but-serving recovery mode.
    Partial,
}

/// What a checked load did: entries loaded, entries skipped, and the
/// line-numbered reasons for every skip. Warnings carry *absolute* file
/// line numbers (entry-body parse errors are rebased from body-relative
/// to file position), so a maintainer can go straight to the bad line.
#[derive(Debug, Default)]
pub struct LoadReport {
    /// One [`DbError::Parse`] per skipped entry / stray line, in file
    /// order. Empty under [`LoadMode::Strict`] (strict aborts instead).
    pub warnings: Vec<DbError>,
    /// Entries parsed and installed.
    pub loaded: usize,
    /// Entries discarded as malformed.
    pub skipped: usize,
}

impl LoadReport {
    /// Whether the load was pristine (nothing skipped, no warnings).
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.warnings.is_empty() && self.skipped == 0
    }
}

/// Rebases an entry-body parse error (lines counted from the body start)
/// to the absolute file line. `body_start` is the 1-based file line of
/// the body's first line; an unpinned error (line 0) is pinned to the
/// `@entry` header just above it.
fn rebase(e: DbError, body_start: usize) -> DbError {
    match e {
        DbError::Parse { line: 0, msg } => DbError::Parse {
            line: body_start.saturating_sub(1),
            msg,
        },
        DbError::Parse { line, msg } => DbError::Parse {
            line: body_start + line - 1,
            msg,
        },
        other => other,
    }
}

/// Models a torn read: keeps the first half of the lines and appends a
/// malformed `@entry` header, so a strict parse can never mistake the
/// prefix for a complete update.
fn torn_text(text: &str) -> String {
    let lines: Vec<&str> = text.lines().collect();
    let mut out = String::new();
    for line in &lines[..lines.len() / 2] {
        out.push_str(line);
        out.push('\n');
    }
    out.push_str("@entry torn\n");
    out
}

/// Process-wide generation source. Every observable content change of
/// any [`DnaDatabase`] draws a fresh value, so two *different* database
/// states can never share a generation — which is what lets the
/// comparator index and the compile cache treat generation equality as
/// cache validity, whichever database they were filled from.
static NEXT_GENERATION: AtomicU64 = AtomicU64::new(1);

fn next_generation() -> u64 {
    NEXT_GENERATION.fetch_add(1, Ordering::Relaxed)
}

/// One demonstrator-code function's DNA, tagged by vulnerability.
#[derive(Debug, Clone, PartialEq)]
pub struct VdcEntry {
    /// Vulnerability identifier (e.g. `CVE-2019-17026`).
    pub cve: String,
    /// Which JITed function of the demonstrator this DNA came from.
    pub function: String,
    /// The extracted DNA vector.
    pub dna: Dna,
}

/// The in-memory DNA database, preloaded at runtime startup (§V).
///
/// Equal [`DnaDatabase::generation`]s mean equal entries, by
/// construction: the entries are private, every method that changes them
/// draws a fresh generation, and a clone or a wholesale assignment moves
/// a generation together with the entries it was drawn for.
#[derive(Debug, Clone)]
pub struct DnaDatabase {
    entries: Vec<VdcEntry>,
    /// Drawn from [`next_generation`] on every content change; the
    /// comparator index and the compile cache compare it against the
    /// generation they were filled under.
    generation: u64,
}

impl Default for DnaDatabase {
    fn default() -> Self {
        DnaDatabase::new()
    }
}

/// Equality is content equality — two databases holding the same entries
/// compare equal regardless of their mutation history.
impl PartialEq for DnaDatabase {
    fn eq(&self, other: &Self) -> bool {
        self.entries == other.entries
    }
}

impl DnaDatabase {
    /// Creates an empty database.
    pub fn new() -> Self {
        DnaDatabase {
            entries: Vec::new(),
            generation: next_generation(),
        }
    }

    /// The current generation. Strictly increases across this database's
    /// content changes; unique process-wide per content change (trivial
    /// installs and no-op removals leave it untouched).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Installs one VDC function's DNA. Trivial DNA (a compilation whose
    /// passes changed nothing) is skipped — it would match everything and
    /// carries no signal.
    pub fn install(&mut self, cve: impl Into<String>, function: impl Into<String>, dna: Dna) {
        if dna.is_trivial() {
            return;
        }
        self.entries.push(VdcEntry {
            cve: cve.into(),
            function: function.into(),
            dna,
        });
        self.generation = next_generation();
    }

    /// Removes every entry belonging to a vulnerability (models applying
    /// its patch). Returns how many entries were removed.
    pub fn remove_cve(&mut self, cve: &str) -> usize {
        let before = self.entries.len();
        self.entries.retain(|e| e.cve != cve);
        let removed = before - self.entries.len();
        if removed > 0 {
            self.generation = next_generation();
        }
        removed
    }

    /// Draws a fresh generation without changing the content. The
    /// serving pool calls this on every publication, so the generations
    /// it publishes increase even when a database parsed outside its lock
    /// drew an older one.
    pub fn touch(&mut self) {
        self.generation = next_generation();
    }

    /// All entries.
    pub fn entries(&self) -> &[VdcEntry] {
        &self.entries
    }

    /// Number of entries (functions, not vulnerabilities).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the database is empty (JITBULL disabled — zero overhead).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Distinct vulnerability ids present.
    pub fn cves(&self) -> Vec<&str> {
        let mut cves: Vec<&str> = self.entries.iter().map(|e| e.cve.as_str()).collect();
        cves.dedup();
        cves.sort_unstable();
        cves.dedup();
        cves
    }

    /// Serialises the whole database to the maintainer-update text format.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for e in &self.entries {
            out.push_str(&format!("@entry {} {}\n", e.cve, e.function));
            out.push_str(&e.dna.to_text());
        }
        out
    }

    /// Parses [`DnaDatabase::to_text`] output under [`LoadMode::Strict`].
    ///
    /// # Errors
    ///
    /// Returns a [`DbError::Parse`] for the first malformed line, with
    /// the absolute file line number.
    pub fn from_text(text: &str) -> Result<Self, DbError> {
        DnaDatabase::from_text_checked(text, LoadMode::Strict).map(|(db, _)| db)
    }

    /// Parses [`DnaDatabase::to_text`] output under an explicit
    /// [`LoadMode`], reporting what was loaded and what was skipped.
    ///
    /// # Errors
    ///
    /// Under [`LoadMode::Strict`], any malformed line aborts with a
    /// [`DbError::Parse`] (absolute file line). Under
    /// [`LoadMode::Partial`], malformed entries become [`LoadReport`]
    /// warnings instead and the call only fails on I/O-level problems
    /// (none for in-memory text).
    pub fn from_text_checked(text: &str, mode: LoadMode) -> Result<(Self, LoadReport), DbError> {
        let mut db = DnaDatabase::new();
        let mut report = LoadReport::default();
        // (cve, function, body, 1-based file line the body starts at)
        let mut current: Option<(String, String, String, usize)> = None;
        // Partial mode: body lines of a malformed entry being discarded.
        let mut skipping = false;
        fn flush(
            db: &mut DnaDatabase,
            cur: &mut Option<(String, String, String, usize)>,
            mode: LoadMode,
            report: &mut LoadReport,
        ) -> Result<(), DbError> {
            if let Some((cve, function, body, body_start)) = cur.take() {
                match Dna::from_text(&body) {
                    Ok(dna) => {
                        db.entries.push(VdcEntry { cve, function, dna });
                        report.loaded += 1;
                    }
                    Err(e) => {
                        let e = rebase(e, body_start);
                        match mode {
                            LoadMode::Strict => return Err(e),
                            LoadMode::Partial => {
                                report.warnings.push(e);
                                report.skipped += 1;
                            }
                        }
                    }
                }
            }
            Ok(())
        }
        for (ln, line) in text.lines().enumerate() {
            let file_line = ln + 1;
            if let Some(rest) = line.strip_prefix("@entry ") {
                flush(&mut db, &mut current, mode, &mut report)?;
                skipping = false;
                let mut parts = rest.splitn(2, ' ');
                let cve = parts.next().unwrap_or_default().to_owned();
                match parts.next() {
                    Some(function) => {
                        current = Some((cve, function.to_owned(), String::new(), file_line + 1));
                    }
                    None => {
                        let e = DbError::parse(file_line, format!("malformed @entry line: {line}"));
                        match mode {
                            LoadMode::Strict => return Err(e),
                            LoadMode::Partial => {
                                report.warnings.push(e);
                                report.skipped += 1;
                                skipping = true;
                            }
                        }
                    }
                }
            } else if let Some((_, _, body, _)) = &mut current {
                body.push_str(line);
                body.push('\n');
            } else if skipping || line.trim().is_empty() {
                // Body of an already-reported malformed entry, or a blank
                // leading line — nothing more to say about either.
            } else {
                let e = DbError::parse(file_line, format!("content before first @entry: {line}"));
                match mode {
                    LoadMode::Strict => return Err(e),
                    LoadMode::Partial => report.warnings.push(e),
                }
            }
        }
        flush(&mut db, &mut current, mode, &mut report)?;
        Ok((db, report))
    }

    /// [`DnaDatabase::from_text_checked`] behind a fault-injection gate:
    /// one [`FaultSite::DbLoad`] occurrence is consumed, and an armed
    /// plan can fail the load with a synthetic I/O or parse error or tear
    /// the text mid-entry before parsing. With a disabled injector this
    /// is exactly `from_text_checked`.
    ///
    /// # Errors
    ///
    /// Everything `from_text_checked` returns, plus the injected
    /// failures themselves.
    pub fn from_text_faulted(
        text: &str,
        mode: LoadMode,
        faults: &FaultInjector,
    ) -> Result<(Self, LoadReport), DbError> {
        if DnaDatabase::fault_gate(faults)? {
            DnaDatabase::from_text_checked(&torn_text(text), mode)
        } else {
            DnaDatabase::from_text_checked(text, mode)
        }
    }

    /// Consumes one `DbLoad` fault occurrence. `Ok(true)` means "tear
    /// the text before parsing"; injected I/O / parse faults surface as
    /// the corresponding [`DbError`].
    fn fault_gate(faults: &FaultInjector) -> Result<bool, DbError> {
        match faults.fire(FaultSite::DbLoad) {
            Some(FaultKind::DbIo) => Err(DbError::Io(std::io::Error::other(
                "chaos: injected database i/o fault",
            ))),
            Some(FaultKind::DbParse) => {
                Err(DbError::parse(0, "chaos: injected database parse fault"))
            }
            Some(FaultKind::DbTruncate) => Ok(true),
            _ => Ok(false),
        }
    }
}

impl DnaDatabase {
    /// Writes the database to a file in the update text format.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn save_to(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_text())
    }

    /// Reads a database previously written by [`DnaDatabase::save_to`].
    ///
    /// # Errors
    ///
    /// Returns [`DbError::Io`] when the file cannot be read and
    /// [`DbError::Parse`] when its content is malformed — the caller can
    /// tell "retry the read" apart from "the update itself is corrupt".
    pub fn load_from(path: impl AsRef<std::path::Path>) -> Result<Self, DbError> {
        DnaDatabase::from_text(&std::fs::read_to_string(path)?)
    }
}

impl fmt::Display for DnaDatabase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "dna database: {} entries across {} vulnerabilities",
            self.len(),
            self.cves().len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dna::chain;

    fn sample_dna() -> Dna {
        let mut dna = Dna::default();
        dna.deltas[3]
            .removed
            .insert(chain(&["boundscheck", "initializedlength", "unbox:array"]));
        dna
    }

    #[test]
    fn install_and_remove() {
        let mut db = DnaDatabase::new();
        assert!(db.is_empty());
        db.install("CVE-2019-17026", "trigger", sample_dna());
        db.install("CVE-2019-17026", "helper", sample_dna());
        db.install("CVE-2019-9810", "pwn", sample_dna());
        assert_eq!(db.len(), 3);
        assert_eq!(db.cves(), vec!["CVE-2019-17026", "CVE-2019-9810"]);
        assert_eq!(db.remove_cve("CVE-2019-17026"), 2);
        assert_eq!(db.len(), 1);
        assert!(!db.is_empty());
    }

    #[test]
    fn trivial_dna_is_not_installed() {
        let mut db = DnaDatabase::new();
        let g0 = db.generation();
        db.install("CVE-X", "f", Dna::default());
        assert!(db.is_empty());
        // A skipped install leaves the content — and the generation —
        // untouched.
        assert_eq!(db.generation(), g0);
    }

    #[test]
    fn generation_moves_with_content_only() {
        let mut db = DnaDatabase::new();
        let g0 = db.generation();
        db.install("CVE-1", "f", sample_dna());
        let g1 = db.generation();
        assert!(g1 > g0);
        assert_eq!(db.remove_cve("CVE-nope"), 0);
        assert_eq!(db.generation(), g1, "no-op removal must not invalidate");
        assert_eq!(db.remove_cve("CVE-1"), 1);
        assert!(db.generation() > g1);
        // Distinct instances never share a generation.
        assert_ne!(
            DnaDatabase::new().generation(),
            DnaDatabase::new().generation()
        );
        // Equality ignores generations.
        assert_eq!(DnaDatabase::new(), DnaDatabase::new());
    }

    /// Equal generation ⇒ equal entries, for any two live databases, over
    /// seeded random sequences of every way a database changes or is
    /// copied. The comparator index and the compile cache's verdict
    /// stamps rest on this.
    #[test]
    fn equal_generations_hold_equal_entries() {
        use jitbull_prng::Rng;
        const CVES: [&str; 3] = ["CVE-1", "CVE-2", "CVE-3"];
        for seed in 0..32 {
            let mut rng = Rng::seed_from_u64(seed);
            let mut live = vec![DnaDatabase::new()];
            for step in 0..48 {
                let i = rng.gen_range(0..live.len());
                let cve = *rng.pick(&CVES);
                match rng.gen_range(0..8u32) {
                    0 => live[i].install(cve, "f", Dna::default()),
                    1 | 2 => {
                        let mut dna = Dna::default();
                        dna.deltas[rng.gen_range(0..8)]
                            .added
                            .insert(chain(&["add", "bitor"]));
                        live[i].install(cve, format!("f{step}"), dna);
                    }
                    3 => {
                        live[i].remove_cve(cve);
                    }
                    4 => live.push(live[i].clone()),
                    5 => live[i] = live[rng.gen_range(0..live.len())].clone(),
                    6 => {
                        let taken = std::mem::take(&mut live[i]);
                        live.push(taken);
                    }
                    _ => live.push(DnaDatabase::from_text(&live[i].to_text()).unwrap()),
                }
                if live.len() > 8 {
                    live.swap_remove(rng.gen_range(0..live.len()));
                }
                for a in &live {
                    for b in live.iter().filter(|b| b.generation() == a.generation()) {
                        assert_eq!(a.entries(), b.entries(), "seed {seed} step {step}");
                    }
                }
            }
        }
    }

    #[test]
    fn text_round_trip() {
        let mut db = DnaDatabase::new();
        db.install("CVE-2019-17026", "trigger", sample_dna());
        db.install("CVE-2019-9810", "pwn", sample_dna());
        let text = db.to_text();
        let back = DnaDatabase::from_text(&text).unwrap();
        assert_eq!(db, back);
    }

    #[test]
    fn from_text_rejects_garbage() {
        assert!(DnaDatabase::from_text("not an entry").is_err());
        assert!(DnaDatabase::from_text("@entry onlyone").is_err());
    }

    #[test]
    fn file_round_trip() {
        let mut db = DnaDatabase::new();
        db.install("CVE-2019-17026", "trigger", sample_dna());
        let dir = std::env::temp_dir().join("jitbull-db-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("update.dnadb");
        db.save_to(&path).unwrap();
        let back = DnaDatabase::load_from(&path).unwrap();
        assert_eq!(db, back);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn partial_mode_skips_malformed_entries_with_absolute_lines() {
        let text = "@entry CVE-GOOD f\n3 - add>bitor\n@entry CVE-BAD g\n32 - add>bitor\n\
                    @entry CVE-ALSO h\n2 - call>div\n";
        // Strict aborts, pinned to the absolute file line of the bad body.
        match DnaDatabase::from_text_checked(text, LoadMode::Strict) {
            Err(DbError::Parse { line, .. }) => assert_eq!(line, 4),
            other => panic!("expected strict parse failure, got {other:?}"),
        }
        // Partial loads the good entries and files one warning per skip.
        let (db, report) = DnaDatabase::from_text_checked(text, LoadMode::Partial).unwrap();
        assert_eq!(db.len(), 2);
        assert_eq!(db.cves(), vec!["CVE-ALSO", "CVE-GOOD"]);
        assert_eq!((report.loaded, report.skipped), (2, 1));
        assert!(!report.is_clean());
        match &report.warnings[..] {
            [DbError::Parse { line, .. }] => assert_eq!(*line, 4),
            other => panic!("expected one line-4 warning, got {other:?}"),
        }
    }

    #[test]
    fn partial_mode_skips_malformed_headers_and_their_bodies() {
        let text = "@entry torn\n3 - add>bitor\n@entry CVE-OK f\n2 - call>div\n";
        assert!(DnaDatabase::from_text(text).is_err());
        let (db, report) = DnaDatabase::from_text_checked(text, LoadMode::Partial).unwrap();
        assert_eq!(db.len(), 1);
        assert_eq!(report.skipped, 1);
        match &report.warnings[..] {
            [DbError::Parse { line, msg }] => {
                assert_eq!(*line, 1);
                assert!(msg.contains("malformed @entry"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn a_chain_element_that_is_not_a_label_is_a_parse_error() {
        let text = "@entry CVE-GOOD f\n3 - add>bitor\n@entry CVE-BAD g\n\
                    1 + add>bitor\n4 - loadelement>guardshape\n@entry CVE-ALSO h\n2 - call>div\n";
        // Strict refuses the whole load, at the absolute line of the name.
        match DnaDatabase::from_text_checked(text, LoadMode::Strict) {
            Err(DbError::Parse { line, msg }) => {
                assert_eq!(line, 5);
                assert_eq!(msg, "unknown label `guardshape`");
            }
            other => panic!("expected strict parse failure, got {other:?}"),
        }
        // Partial skips that entry only, with one warning at that line.
        let (db, report) = DnaDatabase::from_text_checked(text, LoadMode::Partial).unwrap();
        assert_eq!(db.cves(), vec!["CVE-ALSO", "CVE-GOOD"]);
        assert_eq!((report.loaded, report.skipped), (2, 1));
        match &report.warnings[..] {
            [DbError::Parse { line, msg }] => {
                assert_eq!(*line, 5);
                assert_eq!(msg, "unknown label `guardshape`");
            }
            other => panic!("expected one line-5 warning, got {other:?}"),
        }
    }

    #[test]
    fn faulted_load_injects_io_parse_and_truncation() {
        use jitbull_chaos::{FaultInjector, FaultKind, FaultPlan, FaultSite};
        let mut db = DnaDatabase::new();
        db.install("CVE-1", "f", sample_dna());
        db.install("CVE-2", "g", sample_dna());
        let text = db.to_text();

        let io = FaultInjector::from_plan(FaultPlan::new(1).script(
            FaultSite::DbLoad,
            FaultKind::DbIo,
            0,
            1,
        ));
        let err = DnaDatabase::from_text_faulted(&text, LoadMode::Strict, &io).unwrap_err();
        assert_eq!(err.kind(), "io");
        // The window is over: the second attempt succeeds untouched.
        let (back, report) = DnaDatabase::from_text_faulted(&text, LoadMode::Strict, &io).unwrap();
        assert_eq!(back, db);
        assert!(report.is_clean());

        let parse = FaultInjector::from_plan(FaultPlan::new(2).script(
            FaultSite::DbLoad,
            FaultKind::DbParse,
            0,
            1,
        ));
        let err = DnaDatabase::from_text_faulted(&text, LoadMode::Strict, &parse).unwrap_err();
        assert_eq!(err.kind(), "parse");

        // A torn read must never parse as a complete update under Strict…
        let torn = FaultInjector::from_plan(FaultPlan::new(3).script(
            FaultSite::DbLoad,
            FaultKind::DbTruncate,
            0,
            2,
        ));
        assert!(DnaDatabase::from_text_faulted(&text, LoadMode::Strict, &torn).is_err());
        // …while Partial salvages the intact prefix and reports the tear.
        let (prefix, report) =
            DnaDatabase::from_text_faulted(&text, LoadMode::Partial, &torn).unwrap();
        assert!(prefix.len() < db.len());
        assert!(!report.warnings.is_empty());

        // Disabled injector: plain checked load, no occurrences consumed.
        let off = FaultInjector::disabled();
        let (clean, _) = DnaDatabase::from_text_faulted(&text, LoadMode::Strict, &off).unwrap();
        assert_eq!(clean, db);
        assert_eq!(off.occurrences(FaultSite::DbLoad), 0);
    }

    #[test]
    fn load_rejects_garbage_file() {
        let dir = std::env::temp_dir().join("jitbull-db-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("garbage.dnadb");
        std::fs::write(&path, "not a database").unwrap();
        assert!(DnaDatabase::load_from(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    /// The database (and everything inside it) must be shareable across
    /// threads: the serving pool shares one `Arc<DnaDatabase>` with its
    /// workers' guards, and a guard must be movable into a worker.
    #[test]
    fn dna_types_are_thread_safe() {
        fn send_sync<T: Send + Sync>() {}
        fn send<T: Send>() {}
        send_sync::<DnaDatabase>();
        send_sync::<VdcEntry>();
        send_sync::<Dna>();
        send_sync::<crate::Analysis>();
        send_sync::<crate::CompareConfig>();
        send::<crate::Guard>();
    }

    #[test]
    fn display_summarises() {
        let mut db = DnaDatabase::new();
        db.install("CVE-1", "f", sample_dna());
        assert_eq!(
            db.to_string(),
            "dna database: 1 entries across 1 vulnerabilities"
        );
    }
}
