//! Process-global JSONL trace writer.
//!
//! The `repro` binary installs one writer for the whole run; the batch
//! executor submits each cell's buffered events *in cell declaration
//! order* after its (possibly parallel) execution finishes, so the file is
//! byte-identical at any `--jobs` level. Each cell contributes one
//! `{"type":"cell",...}` header line followed by its event lines.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;

use crate::event::TraceEvent;
use crate::json::Json;
use crate::sink::TraceConfig;

/// Identity of the cell a block of trace events belongs to.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CellMeta {
    /// Application name, e.g. `"BFS"`.
    pub app: String,
    /// Policy label, e.g. `"grit"` or `"on-touch"`.
    pub policy: String,
    /// Number of GPUs the cell simulated.
    pub gpus: usize,
}

struct GlobalTrace {
    cfg: TraceConfig,
    out: BufWriter<File>,
    seq: u64,
}

static GLOBAL: Mutex<Option<GlobalTrace>> = Mutex::new(None);

/// Installs the process-global JSONL writer, creating (truncating) `path`.
/// Subsequent batch runs record with `cfg` and append to this file.
///
/// # Errors
///
/// Returns the underlying I/O error if the file cannot be created.
pub fn install_global(cfg: TraceConfig, path: &Path) -> io::Result<()> {
    let file = File::create(path)?;
    *GLOBAL.lock().expect("trace writer poisoned") = Some(GlobalTrace {
        cfg,
        out: BufWriter::new(file),
        seq: 0,
    });
    Ok(())
}

/// The installed writer's capture config, or `None` when tracing is off.
pub fn global_config() -> Option<TraceConfig> {
    GLOBAL.lock().expect("trace writer poisoned").as_ref().map(|g| g.cfg)
}

/// Writes one cell's header plus events to the global trace, returning
/// `false` (and writing nothing) when no writer is installed.
///
/// # Errors
///
/// Propagates I/O errors from the underlying file.
pub fn submit_global(meta: &CellMeta, events: &[TraceEvent]) -> io::Result<bool> {
    let mut guard = GLOBAL.lock().expect("trace writer poisoned");
    let Some(global) = guard.as_mut() else {
        return Ok(false);
    };
    let header = Json::Obj(vec![
        ("type".into(), Json::Str("cell".into())),
        ("seq".into(), Json::UInt(global.seq)),
        ("app".into(), Json::Str(meta.app.clone())),
        ("policy".into(), Json::Str(meta.policy.clone())),
        ("gpus".into(), Json::UInt(meta.gpus as u64)),
        ("events".into(), Json::UInt(events.len() as u64)),
    ]);
    global.seq += 1;
    writeln!(global.out, "{header}")?;
    for ev in events {
        writeln!(global.out, "{}", ev.to_json())?;
    }
    Ok(true)
}

/// Flushes the global writer, if any.
///
/// # Errors
///
/// Propagates I/O errors from the underlying file.
pub fn flush_global() -> io::Result<()> {
    match GLOBAL.lock().expect("trace writer poisoned").as_mut() {
        Some(global) => global.out.flush(),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grit_sim::{GpuId, PageId};

    #[test]
    fn writes_header_then_events_in_submission_order() {
        let dir = std::env::temp_dir().join(format!("grit_trace_writer_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.jsonl");

        install_global(TraceConfig::default(), &path).unwrap();
        assert_eq!(global_config(), Some(TraceConfig::default()));
        let meta = CellMeta {
            app: "BFS".into(),
            policy: "grit".into(),
            gpus: 4,
        };
        let ev = TraceEvent::Eviction {
            cycle: 5,
            gpu: GpuId::new(0),
            vpn: PageId(9),
        };
        assert!(submit_global(&meta, &[ev]).unwrap());
        assert!(submit_global(&meta, &[]).unwrap());
        flush_global().unwrap();

        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        let h0 = Json::parse(lines[0]).unwrap();
        assert_eq!(h0.get("type").unwrap().as_str(), Some("cell"));
        assert_eq!(h0.get("seq").unwrap().as_u64(), Some(0));
        assert_eq!(h0.get("events").unwrap().as_u64(), Some(1));
        assert_eq!(lines[1], ev.to_json().to_string());
        let h1 = Json::parse(lines[2]).unwrap();
        assert_eq!(h1.get("seq").unwrap().as_u64(), Some(1));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
