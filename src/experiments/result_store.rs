//! Content-addressed on-disk result store for resumable campaigns.
//!
//! Each completed cell is stored as one file named by the FNV-1a hash of
//! the cell's *resume key* — a canonical string derived from
//! `(store schema, model hash, app, exp-config, system config, policy,
//! observer)`.
//! An interrupted `repro ... --resume` run loads completed cells from the
//! store instead of re-simulating them; because the simulator is
//! deterministic, the loaded output is exactly what a fresh run would have
//! produced, so resumed and uninterrupted runs render byte-identical
//! tables at any `--jobs`.
//!
//! Eligibility is decided by [`super::batch::CellSpec::resume_key`]:
//! cells with opaque policy factories, prefetchers, or per-cell tracing
//! are never stored (their outputs can't be keyed or fully reconstructed),
//! and the batch executor disables the store entirely while a global
//! trace writer is active (trace events are not persisted).
//!
//! Robustness: writes are atomic (uniquely named temp file + rename, so
//! any number of threads or processes may race on one key — the losers'
//! renames just replace equivalent content). A file is two lines: a
//! header `{"schema","key","checksum"}` and the payload object exactly
//! as it was serialized and checksummed at save time. A load reads the
//! file once, checks the schema tag and the full key (hash collisions
//! degrade to a re-run, never a wrong result) before touching the
//! payload, then checks an FNV-1a checksum over the stored payload bytes
//! and parses them once. A file that fails any of those checks — or
//! cannot be read at all — is **quarantined**: moved to a `quarantine/`
//! subdirectory so it is inspected at most once instead of being
//! re-parsed on every miss, and counted in [`ResultStore::counters`].
//!
//! The store can be bounded ([`ResultStore::open_with`], wired to
//! `repro --store-max-bytes`): after a save that pushes the *cached*
//! running size past the budget it deterministically evicts oldest-first
//! — by modification time, ties broken by file name — until the
//! directory fits. Loads bump the hit file's mtime (best effort), so
//! long-lived stores (the `repro serve` campaign service) converge to a
//! true LRU working set: an entry that is read often survives eviction
//! even if it was written long ago. The running size is maintained
//! incrementally; the directory is only fully rescanned on open and
//! after an eviction pass, so a hot save path is one `stat` + one
//! rename, not a directory walk.

use std::fs;
use std::io::{self, Read};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::SystemTime;

use grit_metrics::{AttrGrid, IntervalSeries};
use grit_trace::{metrics_from_json, metrics_to_json, CellTiming, Json, StoreCounters};

use crate::runner::{RunObserver, RunOutput};

/// Schema tag of every store file; bump when the layout changes so stale
/// files are re-run instead of misparsed. v4: a header line carrying the
/// checksum of the payload line's bytes as written. v5: the payload has
/// no per-page attribute rows (page attributes are read from the trace).
/// v6: slot 1 of each `prof_*_hist` series is the sample sum, not the mean.
pub const STORE_SCHEMA: &str = "grit-result-store/v6";

/// Subdirectory (under the store root) holding files that failed an
/// integrity check on load.
pub const QUARANTINE_DIR: &str = "quarantine";

/// Distinguishes temp files written by racing threads of one process
/// (the process id alone is shared between them).
static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Full directory rescans performed by every store in this process.
static PROCESS_RESCANS: AtomicU64 = AtomicU64::new(0);

/// FNV-1a 64-bit hash; the store's file name (of the key) and the
/// payload checksum (of the payload bytes).
fn fnv1a64(bytes: impl AsRef<[u8]>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes.as_ref() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The checksum a header carries for `payload`.
fn checksum(payload: &[u8]) -> String {
    format!("{:016x}", fnv1a64(payload))
}

/// Full directory rescans (on a bounded open and after each eviction
/// pass) performed by every [`ResultStore`] in this process. A process
/// that opens its store once and saves under budget rescans once.
pub fn process_rescans() -> u64 {
    PROCESS_RESCANS.load(Ordering::Relaxed)
}

/// Traffic counters of one [`ResultStore`] handle and its clones.
#[derive(Debug, Default)]
struct StoreStats {
    hits: AtomicU64,
    misses: AtomicU64,
    quarantined: AtomicU64,
}

/// A directory of completed cell results, keyed by resume-key hash.
#[derive(Clone, Debug)]
pub struct ResultStore {
    dir: PathBuf,
    max_bytes: Option<u64>,
    stats: Arc<StoreStats>,
    /// Cached sum of result-file sizes, maintained incrementally across
    /// saves/quarantines and re-anchored by a full rescan on open and
    /// after every eviction pass. Only consulted when bounded; other
    /// processes sharing the directory drift it, which at worst delays
    /// an eviction pass until the next rescan re-anchors it.
    size_bytes: Arc<AtomicU64>,
    /// Full directory rescans of this store; the incremental-size tests
    /// pin this so the hot save path can never silently regress to a
    /// walk per save.
    rescans: Arc<AtomicU64>,
}

impl ResultStore {
    /// Opens (creating if needed) an unbounded store rooted at `dir`.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn open(dir: &Path) -> io::Result<Self> {
        ResultStore::open_with(dir, None)
    }

    /// Opens (creating if needed) a store rooted at `dir`, bounded to
    /// `max_bytes` of result files (`None` = unbounded). The budget is
    /// enforced after every save that pushes the running size past it,
    /// by oldest-first eviction. Opening a bounded store scans the whole
    /// directory, so a long-lived process opens it once and shares the
    /// handle.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn open_with(dir: &Path, max_bytes: Option<u64>) -> io::Result<Self> {
        fs::create_dir_all(dir)?;
        let store = ResultStore {
            dir: dir.to_path_buf(),
            max_bytes,
            stats: Arc::default(),
            size_bytes: Arc::default(),
            rescans: Arc::default(),
        };
        if max_bytes.is_some() {
            store.rescan_size();
        }
        Ok(store)
    }

    /// A handle on the same store (directory, budget, running size and
    /// rescan count) whose traffic counters start at zero: the batch
    /// executor counts each batch's hits on a store other batches share.
    pub(crate) fn with_fresh_counters(&self) -> Self {
        ResultStore {
            stats: Arc::default(),
            ..self.clone()
        }
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The quarantine directory (which may not exist yet).
    pub fn quarantine_dir(&self) -> PathBuf {
        self.dir.join(QUARANTINE_DIR)
    }

    /// The store's size budget in bytes, if bounded.
    pub fn max_bytes(&self) -> Option<u64> {
        self.max_bytes
    }

    /// Traffic counters since this handle (or any clone of it) was
    /// created: loads answered, loads that missed, and files quarantined.
    pub fn counters(&self) -> StoreCounters {
        StoreCounters {
            hits: self.stats.hits.load(Ordering::Relaxed),
            misses: self.stats.misses.load(Ordering::Relaxed),
            quarantined: self.stats.quarantined.load(Ordering::Relaxed),
        }
    }

    fn path_for(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{:016x}.json", fnv1a64(key)))
    }

    /// Loads the stored output for `key`, or `None` when absent or
    /// invalid. A present-but-invalid file (unreadable, wrong schema,
    /// keyed by a colliding-but-different cell, bad checksum, or an
    /// undecodable payload) is moved to `quarantine/` so it is never
    /// re-read; every failure mode degrades to "re-run the cell".
    pub fn load(&self, key: &str) -> Option<RunOutput> {
        let path = self.path_for(key);
        let mut bytes = Vec::new();
        let read = fs::File::open(&path).and_then(|mut f| f.read_to_end(&mut bytes).map(|_| f));
        let decoded = match read {
            // Nothing on disk (the common cold miss): no file to blame.
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                self.stats.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
            // Present but unreadable: quarantined like a corrupt file.
            Err(_) => None,
            Ok(file) => decode_entry(key, &bytes).map(|out| (file, out)),
        };
        match decoded {
            Some((file, out)) => {
                self.stats.hits.fetch_add(1, Ordering::Relaxed);
                // LRU, not LRU-by-write: a hit refreshes the entry's
                // eviction age. Best effort — a racing evictor or a
                // read-only filesystem just leaves the old mtime.
                let _ = file.set_modified(SystemTime::now());
                Some(out)
            }
            None => {
                self.quarantine(&path);
                self.stats.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Moves a failed file into the quarantine subdirectory (keeping its
    /// name) so it is inspected at most once. Racing quarantiners are
    /// harmless: one rename wins, the loser's failure is swallowed and
    /// not counted.
    fn quarantine(&self, path: &Path) {
        let Some(name) = path.file_name() else { return };
        let qdir = self.quarantine_dir();
        let _ = fs::create_dir_all(&qdir);
        let len = fs::metadata(path).map_or(0, |m| m.len());
        if fs::rename(path, qdir.join(name)).is_ok() {
            self.stats.quarantined.fetch_add(1, Ordering::Relaxed);
            if self.max_bytes.is_some() {
                let _ = self.size_bytes.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| {
                    Some(s.saturating_sub(len))
                });
            }
            eprintln!(
                "store: quarantined corrupt entry {} -> {}/",
                path.display(),
                QUARANTINE_DIR
            );
        }
    }

    /// Atomically persists a completed cell under `key`, then enforces
    /// the size budget. Concurrent writers — other threads of this
    /// process or other processes sharing the directory — may race on
    /// one key safely: each writes a uniquely named temp file
    /// (pid + per-process counter) and the rename is atomic, so the
    /// file is always one writer's complete output, never interleaved.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures (callers log and continue; a failed
    /// save only costs a future re-run).
    pub fn save(&self, key: &str, out: &RunOutput) -> io::Result<()> {
        let final_path = self.path_for(key);
        let tmp_path = final_path.with_extension(format!(
            "tmp-{}-{}",
            std::process::id(),
            TMP_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let encoded = encode_entry(key, out);
        let new_len = encoded.len() as u64;
        fs::write(&tmp_path, encoded)?;
        // The rename may replace an equivalent earlier entry; account
        // for the delta, not the whole file.
        let old_len = fs::metadata(&final_path).map_or(0, |m| m.len());
        fs::rename(&tmp_path, &final_path)?;
        if self.max_bytes.is_some() {
            let _ = self.size_bytes.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| {
                Some(s.saturating_sub(old_len).saturating_add(new_len))
            });
            self.enforce_budget();
        }
        Ok(())
    }

    fn count_rescan(&self) {
        self.rescans.fetch_add(1, Ordering::Relaxed);
        PROCESS_RESCANS.fetch_add(1, Ordering::Relaxed);
    }

    /// Re-anchors the cached running size with a full directory scan.
    fn rescan_size(&self) {
        self.count_rescan();
        let total = self.scan_files().iter().map(|(_, _, len)| len).sum();
        self.size_bytes.store(total, Ordering::Relaxed);
    }

    /// All result files as `(mtime, path, len)`. The quarantine
    /// subdirectory has no `.json` extension and is skipped.
    fn scan_files(&self) -> Vec<(SystemTime, PathBuf, u64)> {
        let Ok(entries) = fs::read_dir(&self.dir) else {
            return Vec::new();
        };
        entries
            .flatten()
            .filter(|e| e.path().extension().is_some_and(|x| x == "json"))
            .filter_map(|e| {
                let meta = e.metadata().ok()?;
                let mtime = meta.modified().ok()?;
                Some((mtime, e.path(), meta.len()))
            })
            .collect()
    }

    /// Deletes result files oldest-first (modification time, ties broken
    /// by file name so the order is deterministic) until the store fits
    /// its budget. Only runs a directory scan when the cached size says
    /// the budget is broken. Failures are swallowed: a fat store costs
    /// disk, not correctness, and racing evictors may legitimately
    /// delete the same file.
    fn enforce_budget(&self) {
        let Some(budget) = self.max_bytes else { return };
        if self.size_bytes.load(Ordering::Relaxed) <= budget {
            return;
        }
        // The cache says we are over: rescan for ground truth (other
        // processes may have added or evicted files), evict, re-anchor.
        self.count_rescan();
        let mut files = self.scan_files();
        let mut total: u64 = files.iter().map(|(_, _, len)| len).sum();
        if total > budget {
            files.sort();
            for (_, path, len) in files {
                if total <= budget {
                    break;
                }
                let _ = fs::remove_file(&path);
                total = total.saturating_sub(len);
            }
        }
        self.size_bytes.store(total, Ordering::Relaxed);
    }

    #[cfg(test)]
    fn debug_rescans(&self) -> u64 {
        self.rescans.load(Ordering::Relaxed)
    }
}

/// Serializes one store file: the header line, then the payload line
/// whose bytes the header's checksum covers.
fn encode_entry(key: &str, out: &RunOutput) -> String {
    let payload = encode_payload(out).to_string();
    let header = Json::Obj(vec![
        ("schema".into(), Json::Str(STORE_SCHEMA.into())),
        ("key".into(), Json::Str(key.into())),
        ("checksum".into(), Json::Str(checksum(payload.as_bytes()))),
    ])
    .to_string();
    format!("{header}\n{payload}\n")
}

/// Splits, schema-checks, key-checks and checksum-checks one store file,
/// then parses and decodes its payload. `None` means the file must not
/// be served. The payload is not looked at until the header vouches for
/// it.
fn decode_entry(key: &str, bytes: &[u8]) -> Option<RunOutput> {
    let body = bytes.strip_suffix(b"\n")?;
    let split = body.iter().position(|&b| b == b'\n')?;
    let (header, payload) = (&body[..split], &body[split + 1..]);
    let header = Json::parse(std::str::from_utf8(header).ok()?).ok()?;
    if header.get("schema")?.as_str()? != STORE_SCHEMA {
        return None;
    }
    if header.get("key")?.as_str()? != key {
        return None; // hash collision: treat as a miss
    }
    if header.get("checksum")?.as_str()? != checksum(payload) {
        return None; // torn or bit-flipped payload
    }
    decode_payload(&Json::parse(std::str::from_utf8(payload).ok()?).ok()?)
}

fn series_to_json(s: &IntervalSeries) -> Json {
    Json::Obj(vec![
        ("interval_cycles".into(), Json::UInt(s.interval_cycles())),
        ("buckets".into(), Json::UInt(s.buckets() as u64)),
        (
            "rows".into(),
            Json::Arr(
                s.iter()
                    .map(|(_, row)| Json::Arr(row.iter().map(|&v| Json::UInt(v)).collect()))
                    .collect(),
            ),
        ),
    ])
}

fn series_from_json(v: &Json) -> Option<IntervalSeries> {
    let interval = v.get("interval_cycles")?.as_u64()?;
    let buckets = v.get("buckets")?.as_u64()? as usize;
    if interval == 0 || buckets == 0 {
        return None;
    }
    let mut rows = Vec::new();
    for row in v.get("rows")?.as_arr()? {
        let counts: Option<Vec<u64>> = row.as_arr()?.iter().map(Json::as_u64).collect();
        rows.push(counts?);
    }
    Some(IntervalSeries::from_rows(interval, buckets, rows))
}

fn grid_to_json(g: &AttrGrid) -> Json {
    let cells = (0..g.intervals())
        .map(|i| {
            Json::Arr((0..g.page_bins()).map(|b| Json::UInt(u64::from(g.get(i, b)))).collect())
        })
        .collect();
    Json::Obj(vec![
        ("intervals".into(), Json::UInt(g.intervals() as u64)),
        ("page_bins".into(), Json::UInt(g.page_bins() as u64)),
        ("cells".into(), Json::Arr(cells)),
    ])
}

fn grid_from_json(v: &Json) -> Option<AttrGrid> {
    let intervals = v.get("intervals")?.as_u64()? as usize;
    let page_bins = v.get("page_bins")?.as_u64()? as usize;
    if intervals == 0 || page_bins == 0 {
        return None;
    }
    let mut g = AttrGrid::new(intervals, page_bins);
    for (i, row) in v.get("cells")?.as_arr()?.iter().enumerate() {
        for (b, code) in row.as_arr()?.iter().enumerate() {
            g.mark(i, b, u8::try_from(code.as_u64()?).ok()?);
        }
    }
    Some(g)
}

fn opt_to_json<T>(v: &Option<T>, f: impl Fn(&T) -> Json) -> Json {
    match v {
        Some(x) => f(x),
        None => Json::Null,
    }
}

/// The payload object: everything of a [`RunOutput`] the store keeps.
fn encode_payload(out: &RunOutput) -> Json {
    let observer = opt_to_json(&out.observer, |obs| {
        Json::Obj(vec![
            ("page_by_gpu".into(), series_to_json(&obs.page_by_gpu)),
            ("page_rw".into(), series_to_json(&obs.page_rw)),
            (
                "grid_private_shared".into(),
                opt_to_json(&obs.grid_private_shared, grid_to_json),
            ),
            (
                "grid_read_rw".into(),
                opt_to_json(&obs.grid_read_rw, grid_to_json),
            ),
            (
                "scheme_timeline".into(),
                opt_to_json(&obs.scheme_timeline, series_to_json),
            ),
        ])
    });
    Json::Obj(vec![
        (
            "timing".into(),
            Json::Obj(vec![
                (
                    "build_seconds".into(),
                    Json::Float(out.timing.build_seconds),
                ),
                ("sim_seconds".into(), Json::Float(out.timing.sim_seconds)),
                (
                    "workload_cache_hit".into(),
                    Json::Bool(out.timing.workload_cache_hit),
                ),
            ]),
        ),
        ("metrics".into(), metrics_to_json(&out.metrics)),
        ("observer".into(), observer),
    ])
}

fn decode_payload(v: &Json) -> Option<RunOutput> {
    let metrics = metrics_from_json(v.get("metrics")?).ok()?;
    let observer = match v.get("observer")? {
        Json::Null => None,
        obs => Some(RunObserver {
            page_by_gpu: series_from_json(obs.get("page_by_gpu")?)?,
            page_rw: series_from_json(obs.get("page_rw")?)?,
            grid_private_shared: match obs.get("grid_private_shared")? {
                Json::Null => None,
                g => Some(grid_from_json(g)?),
            },
            grid_read_rw: match obs.get("grid_read_rw")? {
                Json::Null => None,
                g => Some(grid_from_json(g)?),
            },
            scheme_timeline: match obs.get("scheme_timeline")? {
                Json::Null => None,
                s => Some(series_from_json(s)?),
            },
        }),
    };
    let timing = v.get("timing")?;
    Some(RunOutput {
        metrics,
        observer,
        timing: CellTiming {
            build_seconds: timing.get("build_seconds")?.as_f64()?,
            sim_seconds: timing.get("sim_seconds")?.as_f64()?,
            workload_cache_hit: timing.get("workload_cache_hit")?.as_bool()?,
            resumed: true,
        },
        events: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::batch::run_batch_on;
    use crate::experiments::{run_cell, BatchOptions, CellSpec, ExpConfig, PolicyKind};
    use crate::runner::ObserverConfig;
    use grit_sim::{InjectConfig, PageSizeMode, SimConfig};
    use grit_workloads::App;

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("grit-store-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn tiny_exp() -> ExpConfig {
        ExpConfig {
            scale: 0.02,
            intensity: 0.5,
            seed: 0x7E57,
        }
    }

    fn tiny_output() -> RunOutput {
        run_cell(App::Bfs, PolicyKind::FirstTouch, &tiny_exp())
    }

    #[test]
    fn save_load_round_trips_a_real_run() {
        let out = tiny_output();
        let dir = tmp_dir("rt");
        let store = ResultStore::open(&dir).unwrap();
        store.save("some-key", &out).unwrap();
        let back = store.load("some-key").expect("stored result loads");
        assert_eq!(back.metrics.total_cycles, out.metrics.total_cycles);
        assert_eq!(back.metrics.faults, out.metrics.faults);
        assert!(back.timing.resumed);
        assert!(back.events.is_none());
        // A different key misses even though the hash file exists for the
        // first one.
        assert!(store.load("другой-key").is_none());
        assert_eq!(store.counters().hits, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Runs `cell` once, overwrites its store file with what an earlier
    /// build left behind — one JSON object with `schema`, the key and the
    /// payload fields side by side, plus (v3) a checksum over the
    /// payload's serialization or (v2) none — and checks that the file is
    /// quarantined once and the cell re-runs.
    fn assert_pre_v4_file_is_quarantined_once(tag: &str, schema: &str, with_checksum: bool) {
        let dir = tmp_dir(tag);
        let cell = CellSpec::new(App::Bfs, PolicyKind::FirstTouch, &tiny_exp());
        let key = cell.resume_key().expect("a plain cell is storable");
        // Each run opens the store afresh, as a new process would.
        let run = || {
            let store = ResultStore::open(&dir).unwrap();
            let (mut outs, counters) = run_batch_on(
                std::slice::from_ref(&cell),
                &BatchOptions::new(),
                Some(&store),
            );
            (outs.pop().unwrap().unwrap(), counters)
        };
        let (fresh, _) = run();

        let store = ResultStore::open(&dir).unwrap();
        let path = store.path_for(&key);
        let text = fs::read_to_string(&path).unwrap();
        let (_, payload) = text.trim_end().split_once('\n').unwrap();
        let Json::Obj(payload_fields) = Json::parse(payload).unwrap() else {
            unreachable!()
        };
        let mut fields = vec![
            ("schema".to_string(), Json::Str(schema.into())),
            ("key".to_string(), Json::Str(key.clone())),
        ];
        fields.extend(payload_fields);
        if with_checksum {
            let checksum = super::checksum(payload.as_bytes());
            fields.push(("checksum".to_string(), Json::Str(checksum)));
        }
        fs::write(&path, Json::Obj(fields).to_string()).unwrap();

        let (rerun, counters) = run();
        assert!(!rerun.timing.resumed, "a {schema} file must not be served");
        assert_eq!(rerun.metrics, fresh.metrics);
        assert_eq!((counters.hits, counters.quarantined), (0, 1));

        // The re-run stored a fresh entry; the old file is not seen
        // again.
        let (resumed, counters) = run();
        assert!(resumed.timing.resumed);
        assert_eq!((counters.hits, counters.quarantined), (1, 0));
        assert_eq!(fs::read_dir(store.quarantine_dir()).unwrap().count(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn pre_v4_files_are_quarantined_once_and_the_cell_reruns() {
        assert_pre_v4_file_is_quarantined_once("v3", "grit-result-store/v3", true);
    }

    #[test]
    fn v2_files_are_quarantined_once_and_the_cell_reruns() {
        assert_pre_v4_file_is_quarantined_once("v2", "grit-result-store/v2", false);
    }

    #[test]
    fn v4_files_are_a_header_line_and_the_payload_line() {
        let out = tiny_output();
        let dir = tmp_dir("layout");
        let store = ResultStore::open(&dir).unwrap();
        store.save("k", &out).unwrap();
        let text = fs::read_to_string(store.path_for("k")).unwrap();
        let lines: Vec<&str> = text.split_terminator('\n').collect();
        assert_eq!(lines.len(), 2, "a store file is two lines");
        let header = Json::parse(lines[0]).unwrap();
        assert_eq!(header.get("schema").unwrap().as_str(), Some(STORE_SCHEMA));
        assert_eq!(header.get("key").unwrap().as_str(), Some("k"));
        // The checksum covers the payload line's bytes as written.
        assert_eq!(
            header.get("checksum").unwrap().as_str(),
            Some(format!("{:016x}", fnv1a64(lines[1])).as_str())
        );
        assert_eq!(lines[1], encode_payload(&out).to_string());
        // Page attributes belong to the trace, not the stored run.
        assert!(Json::parse(lines[1]).unwrap().get("pages").is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn non_utf8_and_unreadable_files_are_quarantined() {
        let out = tiny_output();
        let dir = tmp_dir("unreadable");
        let store = ResultStore::open(&dir).unwrap();
        // One byte of a valid entry's payload replaced by 0xff (no longer
        // UTF-8), and a directory where a file should be (it opens, but
        // reading it fails).
        store.save("ff", &out).unwrap();
        let path = store.path_for("ff");
        let mut bytes = fs::read(&path).unwrap();
        let at = bytes.len() - 10;
        bytes[at] = 0xff;
        fs::write(&path, bytes).unwrap();
        fs::create_dir(store.path_for("dir")).unwrap();

        for _ in 0..3 {
            assert!(store.load("ff").is_none());
            assert!(store.load("dir").is_none());
        }
        let c = store.counters();
        assert_eq!((c.hits, c.misses, c.quarantined), (0, 6, 2));
        assert_eq!(fs::read_dir(store.quarantine_dir()).unwrap().count(), 2);
        assert!(!path.exists() && !store.path_for("dir").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    /// One saved entry and its file bytes, shared by every flip case.
    fn flip_fixture() -> &'static (RunOutput, String, Vec<u8>) {
        static FIXTURE: std::sync::OnceLock<(RunOutput, String, Vec<u8>)> =
            std::sync::OnceLock::new();
        FIXTURE.get_or_init(|| {
            let out = tiny_output();
            let cell = CellSpec::new(App::Bfs, PolicyKind::FirstTouch, &tiny_exp());
            let key = cell.resume_key().unwrap();
            let dir = tmp_dir("flip-fixture");
            let store = ResultStore::open(&dir).unwrap();
            store.save(&key, &out).unwrap();
            let bytes = fs::read(store.path_for(&key)).unwrap();
            let _ = fs::remove_dir_all(&dir);
            (out, key, bytes)
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]
        #[test]
        fn a_flipped_byte_is_quarantined_or_harmless(
            part in 0usize..4,
            frac in 0.0f64..1.0,
            mask in 1u8..=255,
        ) {
            let (out, key, bytes) = flip_fixture();
            let first_nl = bytes.iter().position(|&b| b == b'\n').unwrap();
            // Header, the newline after it, payload, or the final newline.
            let at = match part {
                0 => (first_nl as f64 * frac) as usize,
                1 => first_nl,
                2 => first_nl + 1 + ((bytes.len() - first_nl - 2) as f64 * frac) as usize,
                _ => bytes.len() - 1,
            };
            let mut flipped = bytes.clone();
            flipped[at] ^= mask;

            static CASE: AtomicU64 = AtomicU64::new(0);
            let dir = tmp_dir(&format!("flip-{}", CASE.fetch_add(1, Ordering::Relaxed)));
            let store = ResultStore::open(&dir).unwrap();
            let path = store.path_for(key);
            fs::write(&path, &flipped).unwrap();
            let loaded = store.load(key);
            let quarantined = store.counters().quarantined;
            let _ = fs::remove_dir_all(&dir);
            match loaded {
                None => proptest::prop_assert_eq!(quarantined, 1),
                Some(back) => proptest::prop_assert!(
                    encode_payload(&back).to_string() == encode_payload(out).to_string(),
                    "flipping byte {} served an altered output",
                    at
                ),
            }
        }
    }

    #[test]
    fn metrics_round_trip_every_per_layer_series() {
        // One real cell that writes every optional series: an injected
        // outage, mixed 4 KB / 2 MB pages and an observer.
        let cfg = SimConfig {
            inject: InjectConfig::parse("outage@20000:wire=*:for=120000").unwrap(),
            page_size_mode: PageSizeMode::Mixed,
            ..SimConfig::with_gpus(4)
        };
        let observer = ObserverConfig {
            interval_cycles: 100_000,
            scheme_timeline: true,
            ..ObserverConfig::default()
        };
        let out = CellSpec::new(App::Bfs, PolicyKind::GRIT, &tiny_exp())
            .with_cfg(cfg)
            .observed(observer)
            .run();
        let m = &out.metrics;
        let keys = |m: &grit_metrics::RunMetrics| {
            let mut keys: Vec<String> = m.aux.keys().cloned().collect();
            keys.sort_unstable();
            keys
        };
        // Every run writes these twelve series (DESIGN §10) ...
        let every_run = [
            "fabric_class_bytes",
            "fabric_queue_cycles",
            "fault_latency_hist",
            "per_gpu_accesses",
            "per_gpu_faults",
            "per_gpu_finish_cycles",
            "prof_fabric_queue_hist",
            "prof_fault_occupancy_hist",
            "prof_migration_latency_hist",
            "prof_mlp_stall_cycles",
            "tlb_l1_hit_rate",
            "tlb_l2_hit_rate",
        ];
        let healthy = CellSpec::new(App::Bfs, PolicyKind::GRIT, &tiny_exp())
            .with_cfg(SimConfig::with_gpus(4))
            .run();
        assert_eq!(keys(&healthy.metrics), every_run);
        // ... and an injected large-page run adds four more.
        let mut all = every_run.to_vec();
        all.extend([
            "pagesize_counters",
            "resilience_counters",
            "tlb_l1_hit_rate_2m",
            "tlb_l2_hit_rate_2m",
        ]);
        all.sort_unstable();
        assert_eq!(keys(m), all);
        assert!(out.observer.is_some());

        let text = metrics_to_json(m).to_string();
        assert_eq!(&metrics_from_json(&Json::parse(&text).unwrap()).unwrap(), m);

        let dir = tmp_dir("per-layer");
        let store = ResultStore::open(&dir).unwrap();
        store.save("k", &out).unwrap();
        assert_eq!(&store.load("k").expect("stored result loads").metrics, m);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_files_are_quarantined_exactly_once() {
        let out = tiny_output();
        let dir = tmp_dir("corrupt");
        let store = ResultStore::open(&dir).unwrap();

        // Three flavours of damage: not JSON at all, a truncated valid
        // file, and a single flipped payload byte (checksum catches it).
        fs::write(store.path_for("garbage"), "{ not json").unwrap();
        store.save("truncated", &out).unwrap();
        let tpath = store.path_for("truncated");
        let text = fs::read_to_string(&tpath).unwrap();
        fs::write(&tpath, &text[..text.len() / 2]).unwrap();
        store.save("bitflip", &out).unwrap();
        let bpath = store.path_for("bitflip");
        let flipped = fs::read_to_string(&bpath)
            .unwrap()
            .replace("\"total_cycles\":", "\"total_cycles\":1");
        fs::write(&bpath, flipped).unwrap();

        for key in ["garbage", "truncated", "bitflip"] {
            assert!(store.load(key).is_none(), "{key} must not be served");
        }
        assert_eq!(store.counters().quarantined, 3);
        let quarantined = fs::read_dir(store.quarantine_dir()).unwrap().count();
        assert_eq!(quarantined, 3, "all three damaged files moved aside");

        // Second pass: the files are gone from the main directory, so
        // the misses are plain cold misses — nothing is re-parsed or
        // re-quarantined.
        for key in ["garbage", "truncated", "bitflip"] {
            assert!(store.load(key).is_none());
        }
        assert_eq!(
            store.counters().quarantined,
            3,
            "quarantine happens exactly once"
        );
        assert_eq!(store.counters().misses, 6);

        // The slot is usable again: a fresh save round-trips.
        store.save("garbage", &out).unwrap();
        assert!(store.load("garbage").is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn checksum_mismatch_never_serves_altered_content() {
        let out = tiny_output();
        let dir = tmp_dir("altered");
        let store = ResultStore::open(&dir).unwrap();
        store.save("k", &out).unwrap();
        // An "attacker" (or cosmic ray) that keeps the JSON well-formed
        // still loses: the payload no longer matches the checksum.
        let path = store.path_for("k");
        let text = fs::read_to_string(&path).unwrap();
        let tampered = text.replace("\"sim_seconds\":", "\"sim_seconds\":1e3,\"x\":");
        assert_ne!(tampered, text, "tamper point must exist");
        fs::write(&path, tampered).unwrap();
        assert!(store.load("k").is_none(), "tampered payload served");
        assert_eq!(store.counters().quarantined, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn hash_is_stable() {
        // FNV-1a reference value: hash("") = offset basis.
        assert_eq!(fnv1a64(""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a64("a"), fnv1a64("b"));
    }

    #[test]
    fn bounded_store_evicts_oldest_first() {
        let out = tiny_output();

        // Same-length keys give same-size files, so the budget math is
        // exact: measure one file, then allow room for two and a half.
        let probe_dir = tmp_dir("evict-probe");
        let probe = ResultStore::open(&probe_dir).unwrap();
        probe.save("key-0", &out).unwrap();
        let file_size = fs::read_dir(&probe_dir)
            .unwrap()
            .flatten()
            .next()
            .unwrap()
            .metadata()
            .unwrap()
            .len();
        let _ = fs::remove_dir_all(&probe_dir);

        let dir = tmp_dir("evict");
        let store = ResultStore::open_with(&dir, Some(file_size * 5 / 2)).unwrap();
        assert_eq!(store.max_bytes(), Some(file_size * 5 / 2));
        for key in ["key-1", "key-2", "key-3"] {
            store.save(key, &out).unwrap();
            // Distinct mtimes so "oldest" is well defined on coarse
            // filesystem clocks.
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        assert!(
            store.load("key-1").is_none(),
            "oldest entry evicted once the third save broke the budget"
        );
        assert!(store.load("key-2").is_some(), "newer entries survive");
        assert!(store.load("key-3").is_some(), "newest entry survives");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn hot_entries_survive_eviction() {
        let out = tiny_output();
        let probe_dir = tmp_dir("lru-probe");
        let probe = ResultStore::open(&probe_dir).unwrap();
        probe.save("key-0", &out).unwrap();
        let file_size = fs::read_dir(&probe_dir)
            .unwrap()
            .flatten()
            .next()
            .unwrap()
            .metadata()
            .unwrap()
            .len();
        let _ = fs::remove_dir_all(&probe_dir);

        let dir = tmp_dir("lru");
        let store = ResultStore::open_with(&dir, Some(file_size * 5 / 2)).unwrap();
        store.save("key-1", &out).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(20));
        store.save("key-2", &out).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(20));
        // key-1 is the older *write*, but it is read again — the hit
        // bumps its mtime past key-2's, so the write-cold key-2 is the
        // eviction victim when key-3 breaks the budget.
        assert!(store.load("key-1").is_some());
        std::thread::sleep(std::time::Duration::from_millis(20));
        store.save("key-3", &out).unwrap();
        assert!(
            store.load("key-1").is_some(),
            "a repeatedly-hit entry was evicted as if cold"
        );
        assert!(
            store.load("key-2").is_none(),
            "the cold entry is the victim"
        );
        assert!(store.load("key-3").is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bounded_saves_track_size_incrementally_without_rescans() {
        let out = tiny_output();
        let dir = tmp_dir("incr");
        // Budget far above 1000 entries: no save may trigger eviction,
        // so the only permitted rescan is the one at open. This is the
        // bench guard for the hot path — a regression back to
        // scan-per-save trips the counter, not a flaky timer.
        let store = ResultStore::open_with(&dir, Some(u64::MAX)).unwrap();
        assert_eq!(store.debug_rescans(), 1, "open anchors the size cache");
        for i in 0..1000 {
            store.save(&format!("key-{i:04}"), &out).unwrap();
        }
        assert_eq!(
            store.debug_rescans(),
            1,
            "saves under budget must not rescan the directory"
        );
        // The incremental size agrees with the filesystem.
        let actual: u64 = store.scan_files().iter().map(|(_, _, len)| len).sum();
        assert_eq!(store.size_bytes.load(Ordering::Relaxed), actual);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_writers_on_one_key_never_corrupt() {
        let out = tiny_output();
        let dir = tmp_dir("race");
        let store = ResultStore::open(&dir).unwrap();
        // Two writers race the same key repeatedly (the serve path: two
        // clients miss simultaneously, both re-run, both save). Whatever
        // the interleaving, the loser's rename replaces equivalent
        // content and every load in between sees one complete file.
        for _ in 0..25 {
            std::thread::scope(|s| {
                for _ in 0..2 {
                    s.spawn(|| store.save("shared-key", &out).unwrap());
                }
            });
            let back = store.load("shared-key").expect("file is never corrupt");
            assert_eq!(back.metrics.total_cycles, out.metrics.total_cycles);
        }
        // No temp-file litter: every writer's rename landed.
        let stray: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .filter(|e| e.path().extension().is_none_or(|x| x != "json"))
            .filter(|e| e.path().is_file())
            .collect();
        assert!(stray.is_empty(), "leftover temp files: {stray:?}");
        let _ = fs::remove_dir_all(&dir);
    }
}
