//! Binary serialization of generated workload traces.
//!
//! Generated traces are deterministic, but regenerating a full-scale trace
//! costs more than streaming it from disk, and serialized traces can be
//! exchanged between machines or checked into artifact storage. The format
//! is a simple little-endian layout, versioned and self-describing:
//!
//! ```text
//! magic   b"GRTR"
//! version u32            (currently 1)
//! app     u8             (index into the App roster)
//! gpus    u32
//! pages   u64            (footprint)
//! per GPU:
//!   barriers  u64 count, then u64 positions
//!   accesses  u64 count, then per access:
//!     vpn   u64
//!     line  u16
//!     kind  u8           (0 = read, 1 = write)
//!     think u32
//! ```

use std::io::{self, Read, Write};

use grit_sim::{Access, AccessKind, PageId, SliceStream};

use crate::builder::MultiGpuWorkload;
use crate::spec::App;

const MAGIC: &[u8; 4] = b"GRTR";
const VERSION: u32 = 1;

/// The full application roster in serialization order (append-only:
/// indices are part of the on-disk format).
const ROSTER: [App; 12] = [
    App::Bfs,
    App::Bs,
    App::C2d,
    App::Fir,
    App::Gemm,
    App::Mm,
    App::Sc,
    App::St,
    App::Vgg16,
    App::Resnet18,
    App::Spmv,
    App::Pagerank,
];

/// What went wrong while (de)serializing a trace.
///
/// Every decode failure is a typed variant rather than a stringly
/// `InvalidData`, so tools can distinguish "file got truncated" from
/// "file is from a newer build" from "file is not a trace at all" —
/// and a corrupt byte can never panic the reader.
#[derive(Debug)]
pub enum TraceIoError {
    /// The first four bytes are not `b"GRTR"`.
    BadMagic([u8; 4]),
    /// The version field names a format this build does not speak.
    UnsupportedVersion(u32),
    /// The app byte does not index the serialization roster. Carries the
    /// offending byte; the reader cannot know which app it meant.
    UnknownApp(u8),
    /// The app being *written* is missing from the append-only roster —
    /// a build bug (a variant was added without a roster entry).
    AppNotInRoster(App),
    /// The GPU count is zero or implausibly large.
    GpuCountOutOfRange(u32),
    /// An access names a page at or beyond the declared footprint.
    PageBeyondFootprint {
        /// The out-of-range virtual page number.
        vpn: u64,
        /// The declared footprint, in pages.
        footprint: u64,
    },
    /// The access-kind byte is neither read (0) nor write (1).
    BadAccessKind(u8),
    /// A barrier position points past the end of its access stream.
    BarrierBeyondStream {
        /// The barrier position.
        barrier: u64,
        /// The stream length it must not exceed.
        stream_len: u64,
    },
    /// The payload ended before the declared structure did.
    Truncated,
    /// The underlying reader or writer failed.
    Io(io::Error),
}

impl std::fmt::Display for TraceIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceIoError::BadMagic(m) => {
                write!(
                    f,
                    "not a GRIT trace (magic {m:02x?}, expected {MAGIC:02x?})"
                )
            }
            TraceIoError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported trace version {v} (this build reads {VERSION})"
                )
            }
            TraceIoError::UnknownApp(b) => write!(f, "unknown app index {b}"),
            TraceIoError::AppNotInRoster(app) => {
                write!(f, "app {app} missing from the serialization roster")
            }
            TraceIoError::GpuCountOutOfRange(n) => write!(f, "GPU count {n} out of range"),
            TraceIoError::PageBeyondFootprint { vpn, footprint } => {
                write!(
                    f,
                    "access to page {vpn} beyond footprint of {footprint} pages"
                )
            }
            TraceIoError::BadAccessKind(k) => write!(f, "bad access kind {k}"),
            TraceIoError::BarrierBeyondStream {
                barrier,
                stream_len,
            } => {
                write!(
                    f,
                    "barrier at {barrier} beyond stream of {stream_len} accesses"
                )
            }
            TraceIoError::Truncated => write!(f, "trace truncated mid-structure"),
            TraceIoError::Io(e) => write!(f, "trace I/O failed: {e}"),
        }
    }
}

impl std::error::Error for TraceIoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceIoError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for TraceIoError {
    fn from(e: io::Error) -> Self {
        // A reader hitting EOF mid-field means the file was cut short:
        // surface that as the structural fact it is.
        if e.kind() == io::ErrorKind::UnexpectedEof {
            TraceIoError::Truncated
        } else {
            TraceIoError::Io(e)
        }
    }
}

fn app_index(app: App) -> Result<u8, TraceIoError> {
    ROSTER
        .iter()
        .position(|a| *a == app)
        .map(|i| i as u8)
        .ok_or(TraceIoError::AppNotInRoster(app))
}

/// Writes a workload to any [`Write`] sink (pass `&mut writer` to keep
/// ownership).
///
/// # Errors
///
/// Returns [`TraceIoError::AppNotInRoster`] if the workload's app has no
/// serialization index; wraps I/O errors from the sink.
pub fn write_trace<W: Write>(workload: &MultiGpuWorkload, mut w: W) -> Result<(), TraceIoError> {
    w.write_all(MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())?;
    w.write_all(&[app_index(workload.app)?])?;
    w.write_all(&(workload.streams.len() as u32).to_le_bytes())?;
    w.write_all(&workload.footprint_pages.to_le_bytes())?;
    for (stream, barriers) in workload.streams.iter().zip(&workload.barriers) {
        w.write_all(&(barriers.len() as u64).to_le_bytes())?;
        for &b in barriers {
            w.write_all(&(b as u64).to_le_bytes())?;
        }
        let mut s = stream.clone();
        w.write_all(&(s.remaining() as u64).to_le_bytes())?;
        while let Some(a) = s.next_access() {
            w.write_all(&a.vpn.vpn().to_le_bytes())?;
            w.write_all(&a.line.to_le_bytes())?;
            w.write_all(&[u8::from(a.is_write())])?;
            w.write_all(&a.think.to_le_bytes())?;
        }
    }
    Ok(())
}

fn read_exact<const N: usize, R: Read>(r: &mut R) -> io::Result<[u8; N]> {
    let mut buf = [0u8; N];
    r.read_exact(&mut buf)?;
    Ok(buf)
}

/// Reads a workload previously written with [`write_trace`] (pass
/// `&mut reader` to keep ownership).
///
/// # Errors
///
/// Returns a typed [`TraceIoError`] describing exactly what was wrong:
/// bad magic, unknown version or app, malformed payload, truncation, or
/// an underlying I/O failure. Never panics, whatever the input bytes.
pub fn read_trace<R: Read>(mut r: R) -> Result<MultiGpuWorkload, TraceIoError> {
    let magic = read_exact::<4, _>(&mut r)?;
    if &magic != MAGIC {
        return Err(TraceIoError::BadMagic(magic));
    }
    let version = u32::from_le_bytes(read_exact(&mut r)?);
    if version != VERSION {
        return Err(TraceIoError::UnsupportedVersion(version));
    }
    let [app_idx] = read_exact::<1, _>(&mut r)?;
    let app = *ROSTER.get(app_idx as usize).ok_or(TraceIoError::UnknownApp(app_idx))?;
    let gpus_raw = u32::from_le_bytes(read_exact(&mut r)?);
    if gpus_raw == 0 || gpus_raw > 16 {
        return Err(TraceIoError::GpuCountOutOfRange(gpus_raw));
    }
    let gpus = gpus_raw as usize;
    let footprint_pages = u64::from_le_bytes(read_exact(&mut r)?);

    let mut streams = Vec::with_capacity(gpus);
    let mut barriers = Vec::with_capacity(gpus);
    for _ in 0..gpus {
        // Declared counts are untrusted: cap the preallocation so a
        // corrupt length cannot abort on an absurd reservation — the
        // per-element reads below hit `Truncated` long before any real
        // memory pressure.
        let nbar = u64::from_le_bytes(read_exact(&mut r)?) as usize;
        let mut bars = Vec::with_capacity(nbar.min(1 << 16));
        for _ in 0..nbar {
            bars.push(u64::from_le_bytes(read_exact(&mut r)?) as usize);
        }
        let nacc = u64::from_le_bytes(read_exact(&mut r)?) as usize;
        let mut acc = Vec::with_capacity(nacc.min(1 << 20));
        for _ in 0..nacc {
            let vpn = u64::from_le_bytes(read_exact(&mut r)?);
            if vpn >= footprint_pages {
                return Err(TraceIoError::PageBeyondFootprint {
                    vpn,
                    footprint: footprint_pages,
                });
            }
            let line = u16::from_le_bytes(read_exact(&mut r)?);
            let [kind] = read_exact::<1, _>(&mut r)?;
            let think = u32::from_le_bytes(read_exact(&mut r)?);
            let kind = match kind {
                0 => AccessKind::Read,
                1 => AccessKind::Write,
                k => return Err(TraceIoError::BadAccessKind(k)),
            };
            acc.push(Access {
                vpn: PageId(vpn),
                line,
                kind,
                think,
            });
        }
        if let Some(&last) = bars.last() {
            if last > acc.len() {
                return Err(TraceIoError::BarrierBeyondStream {
                    barrier: last as u64,
                    stream_len: acc.len() as u64,
                });
            }
        }
        streams.push(SliceStream::new(acc));
        barriers.push(bars);
    }
    Ok(MultiGpuWorkload {
        app,
        footprint_pages,
        streams,
        barriers,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::WorkloadBuilder;

    fn sample(app: App) -> MultiGpuWorkload {
        WorkloadBuilder::new(app).scale(0.015).intensity(0.5).seed(3).build()
    }

    #[test]
    fn round_trips_every_app() {
        for app in ROSTER {
            let original = sample(app);
            let mut buf = Vec::new();
            write_trace(&original, &mut buf).unwrap();
            let loaded = read_trace(buf.as_slice()).unwrap();
            assert_eq!(loaded.app, original.app);
            assert_eq!(loaded.footprint_pages, original.footprint_pages);
            assert_eq!(loaded.barriers, original.barriers);
            for (mut a, mut b) in loaded.streams.into_iter().zip(original.streams) {
                loop {
                    let (x, y) = (a.next_access(), b.next_access());
                    assert_eq!(x, y, "{app}");
                    if x.is_none() {
                        break;
                    }
                }
            }
        }
    }

    #[test]
    fn rejects_bad_magic() {
        let e = read_trace(&b"NOPE...."[..]).unwrap_err();
        assert!(
            matches!(e, TraceIoError::BadMagic(m) if &m == b"NOPE"),
            "{e:?}"
        );
    }

    #[test]
    fn rejects_wrong_version() {
        let mut buf = Vec::new();
        write_trace(&sample(App::Gemm), &mut buf).unwrap();
        buf[4] = 99; // bump version
        let e = read_trace(buf.as_slice()).unwrap_err();
        assert!(matches!(e, TraceIoError::UnsupportedVersion(99)), "{e:?}");
    }

    #[test]
    fn rejects_unknown_app_byte() {
        let mut buf = Vec::new();
        write_trace(&sample(App::Fir), &mut buf).unwrap();
        buf[8] = 200; // app byte lives after magic + version
        let e = read_trace(buf.as_slice()).unwrap_err();
        assert!(matches!(e, TraceIoError::UnknownApp(200)), "{e:?}");
    }

    #[test]
    fn rejects_truncation_as_truncated() {
        let mut buf = Vec::new();
        write_trace(&sample(App::Bfs), &mut buf).unwrap();
        buf.truncate(buf.len() / 2);
        let e = read_trace(buf.as_slice()).unwrap_err();
        assert!(matches!(e, TraceIoError::Truncated), "{e:?}");
    }

    #[test]
    fn rejects_out_of_footprint_access() {
        let mut buf = Vec::new();
        write_trace(&sample(App::St), &mut buf).unwrap();
        // Footprint field lives at offset 4+4+1+4 = 13; shrink it to 1 so
        // every recorded access lands beyond it.
        buf[13..21].copy_from_slice(&1u64.to_le_bytes());
        let e = read_trace(buf.as_slice()).unwrap_err();
        assert!(
            matches!(e, TraceIoError::PageBeyondFootprint { footprint: 1, .. }),
            "{e:?}"
        );
    }

    #[test]
    fn every_truncation_point_errors_without_panic() {
        // Deterministic truncation fuzz: cutting the trace at *any* byte
        // must produce a structured error, never a panic. Cover every
        // header prefix and a stride through the payload.
        let mut buf = Vec::new();
        write_trace(&sample(App::C2d), &mut buf).unwrap();
        let cut_points = (0..64.min(buf.len())).chain((64..buf.len()).step_by(97));
        for cut in cut_points {
            let e = read_trace(&buf[..cut]).unwrap_err();
            assert!(matches!(e, TraceIoError::Truncated), "cut at {cut}: {e:?}");
        }
    }

    #[test]
    fn every_single_byte_header_corruption_errors_or_stays_valid() {
        // Deterministic corruption fuzz over the whole header and the
        // first stream's length fields: flip each byte through several
        // values; the reader must either reject the bytes with a typed
        // error or parse a (different but) structurally valid trace —
        // and never panic. Payload-only corruptions that keep the
        // structure valid are legitimately accepted.
        let mut buf = Vec::new();
        write_trace(&sample(App::Bs), &mut buf).unwrap();
        let header_len = 37.min(buf.len()); // magic..footprint + barrier count + a few positions
        for offset in 0..header_len {
            for flip in [0x01u8, 0x80, 0xff] {
                let mut corrupt = buf.clone();
                corrupt[offset] ^= flip;
                match read_trace(corrupt.as_slice()) {
                    Ok(w) => {
                        // Whatever parsed must uphold the format's own
                        // promises.
                        assert!(!w.streams.is_empty());
                        assert!(w.footprint_pages > 0);
                    }
                    Err(e) => {
                        assert!(
                            !matches!(e, TraceIoError::Io(_)),
                            "byte {offset} flip {flip:#x}: in-memory read cannot fail I/O: {e:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn loaded_trace_preserves_volume() {
        // Full access-level equality is covered by round_trips_every_app;
        // the end-to-end "same simulation result" guarantee lives in the
        // root crate's integration tests where the runner is available.
        let original = sample(App::Mm);
        let mut buf = Vec::new();
        write_trace(&original, &mut buf).unwrap();
        let loaded = read_trace(buf.as_slice()).unwrap();
        assert_eq!(loaded.total_accesses(), original.total_accesses());
        assert_eq!(loaded.footprint_pages, original.footprint_pages);
    }
}
