//! The `grit-serve/v1` wire schema: newline-delimited JSON messages.
//!
//! Clients send one JSON object per line ([`Request`]); the server
//! answers with one JSON object per line ([`Response`]). Every message
//! carries a `schema` tag and a `type` discriminator. Parsing is
//! **forward tolerant**: unknown object fields are ignored, so a v1
//! client keeps working against a server that has grown new fields (and
//! vice versa) — only a changed `schema` tag or a missing required
//! field is an error.
//!
//! The payload of a `submit` request is a serialized
//! [`RunSpec`] — the same struct the CLI flags build
//! and the result store keys on — so the wire adds no encoding of its
//! own.

use grit_sim::RunSpec;
use grit_trace::Json;

/// Schema tag carried by every message; bump on breaking layout
/// changes.
pub const SERVE_SCHEMA: &str = "grit-serve/v1";

/// Serializes a [`RunSpec`] as a JSON object. Optional fields are
/// emitted only when set, so default specs stay compact and the
/// encoding is stable for golden fixtures.
pub fn spec_to_json(spec: &RunSpec) -> Json {
    let mut fields: Vec<(String, Json)> = vec![
        ("app".into(), Json::Str(spec.app.clone())),
        ("policy".into(), Json::Str(spec.policy.clone())),
        ("scale".into(), Json::Float(spec.scale)),
        ("intensity".into(), Json::Float(spec.intensity)),
        ("seed".into(), Json::UInt(spec.seed)),
    ];
    if let Some(gpus) = spec.gpus {
        fields.push(("gpus".into(), Json::UInt(gpus as u64)));
    }
    if let Some(bytes) = spec.page_size {
        fields.push(("page_size".into(), Json::UInt(bytes)));
    }
    if let Some(mode) = &spec.page_size_mode {
        fields.push(("page_size_mode".into(), Json::Str(mode.clone())));
    }
    if let Some(topology) = &spec.topology {
        fields.push(("topology".into(), Json::Str(topology.clone())));
    }
    if let Some(inject) = &spec.inject {
        fields.push(("inject".into(), Json::Str(inject.clone())));
    }
    if let Some(secs) = spec.timeout_secs {
        fields.push(("timeout_secs".into(), Json::Float(secs)));
    }
    if spec.trace {
        fields.push(("trace".into(), Json::Bool(true)));
        if let Some(filter) = &spec.trace_filter {
            fields.push(("trace_filter".into(), Json::Str(filter.clone())));
        }
        if spec.trace_sample != 1 {
            fields.push(("trace_sample".into(), Json::UInt(spec.trace_sample)));
        }
    }
    Json::Obj(fields)
}

/// Deserializes a [`RunSpec`] from a JSON object. `app` and `policy`
/// are required; every other field falls back to the spec default, and
/// unknown fields are ignored.
///
/// # Errors
///
/// A human-readable message naming the missing or mistyped field.
pub fn spec_from_json(v: &Json) -> Result<RunSpec, String> {
    let mut spec = RunSpec::default();
    spec.app = v.get("app").and_then(Json::as_str).ok_or("spec: missing app")?.to_string();
    spec.policy = v
        .get("policy")
        .and_then(Json::as_str)
        .ok_or("spec: missing policy")?
        .to_string();
    if let Some(x) = v.get("scale").and_then(Json::as_f64) {
        spec.scale = x;
    }
    if let Some(x) = v.get("intensity").and_then(Json::as_f64) {
        spec.intensity = x;
    }
    if let Some(x) = v.get("seed").and_then(Json::as_u64) {
        spec.seed = x;
    }
    spec.gpus = v.get("gpus").and_then(Json::as_u64).map(|g| g as usize);
    spec.page_size = v.get("page_size").and_then(Json::as_u64);
    spec.page_size_mode = v.get("page_size_mode").and_then(Json::as_str).map(String::from);
    spec.topology = v.get("topology").and_then(Json::as_str).map(String::from);
    spec.inject = v.get("inject").and_then(Json::as_str).map(String::from);
    spec.timeout_secs = v.get("timeout_secs").and_then(Json::as_f64);
    spec.trace = v.get("trace").and_then(Json::as_bool).unwrap_or(false);
    spec.trace_filter = v.get("trace_filter").and_then(Json::as_str).map(String::from);
    if let Some(n) = v.get("trace_sample").and_then(Json::as_u64) {
        spec.trace_sample = n.max(1);
    }
    Ok(spec)
}

/// One client-to-server message.
// A submit carries a whole RunSpec inline; requests are parsed once per
// line, so the size skew against Ping/Shutdown is irrelevant.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, PartialEq, Debug)]
#[non_exhaustive]
pub enum Request {
    /// Run one cell. `id` is client-chosen and echoed on every line
    /// about this cell; results stream back in submission order.
    Submit {
        /// Client-chosen cell identifier.
        id: u64,
        /// The cell to run.
        spec: RunSpec,
    },
    /// Liveness probe; answered immediately with `pong`.
    Ping,
    /// Ask the server to exit once every submitted cell (on any
    /// connection) has been answered.
    Shutdown,
}

impl Request {
    /// Serializes the request as one JSON object (no trailing newline).
    pub fn to_json(&self) -> Json {
        match self {
            Request::Submit { id, spec } => Json::Obj(vec![
                ("schema".into(), Json::Str(SERVE_SCHEMA.into())),
                ("type".into(), Json::Str("submit".into())),
                ("id".into(), Json::UInt(*id)),
                ("spec".into(), spec_to_json(spec)),
            ]),
            Request::Ping => Json::Obj(vec![
                ("schema".into(), Json::Str(SERVE_SCHEMA.into())),
                ("type".into(), Json::Str("ping".into())),
            ]),
            Request::Shutdown => Json::Obj(vec![
                ("schema".into(), Json::Str(SERVE_SCHEMA.into())),
                ("type".into(), Json::Str("shutdown".into())),
            ]),
        }
    }

    /// Parses one request line. Unknown fields are ignored; an unknown
    /// `type` or `schema` is an error (the client is speaking a
    /// different protocol version).
    ///
    /// # Errors
    ///
    /// A human-readable message suitable for an `error` response line.
    pub fn from_json(v: &Json) -> Result<Request, String> {
        check_schema(v)?;
        match v.get("type").and_then(Json::as_str).ok_or("missing type")? {
            "submit" => Ok(Request::Submit {
                id: v.get("id").and_then(Json::as_u64).ok_or("submit: missing id")?,
                spec: spec_from_json(v.get("spec").ok_or("submit: missing spec")?)?,
            }),
            "ping" => Ok(Request::Ping),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!("unknown request type '{other}'")),
        }
    }
}

/// The outcome of one served cell, as it travels on the wire.
#[derive(Clone, PartialEq, Debug, Default)]
#[non_exhaustive]
pub struct CellResult {
    /// The client's submission id.
    pub id: u64,
    /// `"ok"`, or the failure status (`"panicked"`, `"timed-out"`,
    /// `"invalid-spec"`, ...).
    pub status: String,
    /// The result was loaded from the shared store instead of re-run.
    pub store_hit: bool,
    /// Simulated cycles to completion.
    pub total_cycles: u64,
    /// Total memory accesses replayed.
    pub accesses: u64,
    /// GPU-local faults.
    pub local_faults: u64,
    /// Page migrations.
    pub migrations: u64,
    /// Wall-clock simulation seconds on the server.
    pub sim_seconds: f64,
    /// Result-store loads answered while serving this cell (0 or 1 in
    /// practice; kept as a counter to match the report schema).
    pub store_hits: u64,
    /// Result-store loads that missed while serving this cell.
    pub store_misses: u64,
    /// Store files quarantined (failed an integrity check) while
    /// serving this cell.
    pub store_quarantined: u64,
    /// Failure detail when `status != "ok"`.
    pub error: Option<String>,
    /// The cell's own trace events (`TraceEvent::to_json` objects), when
    /// its spec asked for tracing. The `result` line does not carry
    /// them: they travel as the `trace` lines just before it.
    pub trace: Vec<Json>,
}

impl CellResult {
    /// Whether the cell completed.
    pub fn is_ok(&self) -> bool {
        self.status == "ok"
    }
}

/// One server-to-client message.
#[derive(Clone, PartialEq, Debug)]
#[non_exhaustive]
pub enum Response {
    /// First line on every connection: the server is speaking v1.
    Hello {
        /// Server crate version.
        version: String,
    },
    /// A `submit` was parsed and queued (sent immediately, in request
    /// order).
    Accepted {
        /// The client's submission id.
        id: u64,
    },
    /// A `submit` was parsed but **not** queued: the server's global
    /// cell queue is full (admission control). The cell is not counted
    /// toward the connection's results; the client should back off for
    /// at least `retry_after_ms` and resubmit.
    Busy {
        /// The client's submission id.
        id: u64,
        /// Server's backoff hint in milliseconds.
        retry_after_ms: u64,
    },
    /// Out-of-band progress: a worker picked the cell up. Unlike
    /// `result` lines these are *not* ordered between cells.
    Progress {
        /// The client's submission id.
        id: u64,
        /// Lifecycle state (`"running"`).
        state: String,
    },
    /// One trace event of a traced cell; trace lines for a cell
    /// immediately precede its `result` line.
    Trace {
        /// The client's submission id.
        id: u64,
        /// The `grit-trace` event object, verbatim.
        event: Json,
    },
    /// A finished cell, in per-client submission order.
    Result(CellResult),
    /// Answer to `ping`.
    Pong,
    /// A request line the server could not honor; `id` when it could
    /// at least be attributed.
    Error {
        /// The submission id, when attributable.
        id: Option<u64>,
        /// What went wrong.
        message: String,
    },
    /// Last line of a connection: every submitted cell was answered.
    Done {
        /// Number of `result` lines sent on this connection.
        results: u64,
    },
}

impl Response {
    /// Serializes the response as one JSON object (no trailing newline),
    /// moving its strings and trace event into the object. A `result`
    /// leaves its [`CellResult::trace`] behind: the server sends those
    /// events as `trace` lines first.
    pub fn into_json(self) -> Json {
        let mut fields: Vec<(String, Json)> =
            vec![("schema".into(), Json::Str(SERVE_SCHEMA.into()))];
        match self {
            Response::Hello { version } => {
                fields.push(("type".into(), Json::Str("hello".into())));
                fields.push(("version".into(), Json::Str(version)));
            }
            Response::Accepted { id } => {
                fields.push(("type".into(), Json::Str("accepted".into())));
                fields.push(("id".into(), Json::UInt(id)));
            }
            Response::Busy { id, retry_after_ms } => {
                fields.push(("type".into(), Json::Str("busy".into())));
                fields.push(("id".into(), Json::UInt(id)));
                fields.push(("retry_after_ms".into(), Json::UInt(retry_after_ms)));
            }
            Response::Progress { id, state } => {
                fields.push(("type".into(), Json::Str("progress".into())));
                fields.push(("id".into(), Json::UInt(id)));
                fields.push(("state".into(), Json::Str(state)));
            }
            Response::Trace { id, event } => {
                fields.push(("type".into(), Json::Str("trace".into())));
                fields.push(("id".into(), Json::UInt(id)));
                fields.push(("event".into(), event));
            }
            Response::Result(r) => {
                fields.push(("type".into(), Json::Str("result".into())));
                fields.push(("id".into(), Json::UInt(r.id)));
                fields.push(("status".into(), Json::Str(r.status)));
                fields.push(("store_hit".into(), Json::Bool(r.store_hit)));
                fields.push(("total_cycles".into(), Json::UInt(r.total_cycles)));
                fields.push(("accesses".into(), Json::UInt(r.accesses)));
                fields.push(("local_faults".into(), Json::UInt(r.local_faults)));
                fields.push(("migrations".into(), Json::UInt(r.migrations)));
                fields.push(("sim_seconds".into(), Json::Float(r.sim_seconds)));
                // Store traffic is the exception, not the rule: emit
                // only nonzero counters so pre-v8 readers and golden
                // fixtures are unchanged for cells that never touch
                // the store.
                if r.store_hits != 0 {
                    fields.push(("store_hits".into(), Json::UInt(r.store_hits)));
                }
                if r.store_misses != 0 {
                    fields.push(("store_misses".into(), Json::UInt(r.store_misses)));
                }
                if r.store_quarantined != 0 {
                    fields.push(("store_quarantined".into(), Json::UInt(r.store_quarantined)));
                }
                if let Some(e) = r.error {
                    fields.push(("error".into(), Json::Str(e)));
                }
            }
            Response::Pong => fields.push(("type".into(), Json::Str("pong".into()))),
            Response::Error { id, message } => {
                fields.push(("type".into(), Json::Str("error".into())));
                if let Some(id) = id {
                    fields.push(("id".into(), Json::UInt(id)));
                }
                fields.push(("message".into(), Json::Str(message)));
            }
            Response::Done { results } => {
                fields.push(("type".into(), Json::Str("done".into())));
                fields.push(("results".into(), Json::UInt(results)));
            }
        }
        Json::Obj(fields)
    }

    /// Parses one response line, ignoring unknown fields.
    ///
    /// # Errors
    ///
    /// A human-readable message naming the missing or mistyped field.
    pub fn from_json(v: &Json) -> Result<Response, String> {
        check_schema(v)?;
        let id = || v.get("id").and_then(Json::as_u64).ok_or("missing id");
        match v.get("type").and_then(Json::as_str).ok_or("missing type")? {
            "hello" => Ok(Response::Hello {
                version: v.get("version").and_then(Json::as_str).unwrap_or_default().to_string(),
            }),
            "accepted" => Ok(Response::Accepted { id: id()? }),
            "busy" => Ok(Response::Busy {
                id: id()?,
                retry_after_ms: v.get("retry_after_ms").and_then(Json::as_u64).unwrap_or(0),
            }),
            "progress" => Ok(Response::Progress {
                id: id()?,
                state: v.get("state").and_then(Json::as_str).unwrap_or_default().to_string(),
            }),
            "trace" => Ok(Response::Trace {
                id: id()?,
                event: v.get("event").ok_or("trace: missing event")?.clone(),
            }),
            "result" => Ok(Response::Result(CellResult {
                id: id()?,
                status: v
                    .get("status")
                    .and_then(Json::as_str)
                    .ok_or("result: missing status")?
                    .to_string(),
                store_hit: v.get("store_hit").and_then(Json::as_bool).unwrap_or(false),
                total_cycles: v.get("total_cycles").and_then(Json::as_u64).unwrap_or(0),
                accesses: v.get("accesses").and_then(Json::as_u64).unwrap_or(0),
                local_faults: v.get("local_faults").and_then(Json::as_u64).unwrap_or(0),
                migrations: v.get("migrations").and_then(Json::as_u64).unwrap_or(0),
                sim_seconds: v.get("sim_seconds").and_then(Json::as_f64).unwrap_or(0.0),
                store_hits: v.get("store_hits").and_then(Json::as_u64).unwrap_or(0),
                store_misses: v.get("store_misses").and_then(Json::as_u64).unwrap_or(0),
                store_quarantined: v.get("store_quarantined").and_then(Json::as_u64).unwrap_or(0),
                error: v.get("error").and_then(Json::as_str).map(String::from),
                trace: Vec::new(),
            })),
            "pong" => Ok(Response::Pong),
            "error" => Ok(Response::Error {
                id: v.get("id").and_then(Json::as_u64),
                message: v.get("message").and_then(Json::as_str).unwrap_or_default().to_string(),
            }),
            "done" => Ok(Response::Done {
                results: v.get("results").and_then(Json::as_u64).unwrap_or(0),
            }),
            other => Err(format!("unknown response type '{other}'")),
        }
    }
}

fn check_schema(v: &Json) -> Result<(), String> {
    match v.get("schema").and_then(Json::as_str) {
        Some(SERVE_SCHEMA) => Ok(()),
        Some(other) => Err(format!(
            "unsupported schema '{other}' (want {SERVE_SCHEMA})"
        )),
        None => Err("missing schema tag".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_round_trips_with_all_fields() {
        let spec = RunSpec::new("BFS", "grit")
            .scale(0.5)
            .intensity(1.0)
            .seed(7)
            .gpus(8)
            .page_size(2 * 1024 * 1024)
            .page_size_mode("mixed")
            .topology("ring")
            .inject("retire@10:gpu=0:frames=1")
            .timeout_secs(3.5)
            .trace(true)
            .trace_filter("fault,migration")
            .trace_sample(4);
        let back = spec_from_json(&spec_to_json(&spec)).unwrap();
        assert_eq!(back, spec);
        // And a default-ish spec too (optional fields absent on the wire).
        let plain = RunSpec::new("GEMM", "ideal");
        assert_eq!(spec_from_json(&spec_to_json(&plain)).unwrap(), plain);
    }

    #[test]
    fn request_and_response_round_trip() {
        let msgs = [
            Request::Submit {
                id: 3,
                spec: RunSpec::new("FIR", "on-touch"),
            },
            Request::Ping,
            Request::Shutdown,
        ];
        for m in msgs {
            let line = m.to_json().to_string();
            let back = Request::from_json(&Json::parse(&line).unwrap()).unwrap();
            assert_eq!(back, m);
        }
        let msgs = [
            Response::Hello {
                version: "0.1.0".into(),
            },
            Response::Accepted { id: 1 },
            Response::Busy {
                id: 2,
                retry_after_ms: 2000,
            },
            Response::Progress {
                id: 1,
                state: "running".into(),
            },
            Response::Trace {
                id: 1,
                event: Json::Obj(vec![("type".into(), Json::Str("fault".into()))]),
            },
            Response::Result(CellResult {
                id: 1,
                status: "ok".into(),
                store_hit: true,
                total_cycles: 123,
                accesses: 456,
                local_faults: 7,
                migrations: 8,
                sim_seconds: 0.25,
                store_hits: 1,
                store_misses: 0,
                store_quarantined: 0,
                error: None,
                trace: Vec::new(),
            }),
            Response::Pong,
            Response::Error {
                id: Some(9),
                message: "unknown app 'quake'".into(),
            },
            Response::Done { results: 4 },
        ];
        for m in msgs {
            let line = m.clone().into_json().to_string();
            let back = Response::from_json(&Json::parse(&line).unwrap()).unwrap();
            assert_eq!(back, m);
        }
    }

    #[test]
    fn zero_store_counters_stay_off_the_wire() {
        // Pre-v8 readers and golden fixtures must not see new fields on
        // cells that never touched the store.
        let r = Response::Result(CellResult {
            id: 1,
            status: "ok".into(),
            ..CellResult::default()
        });
        let line = r.clone().into_json().to_string();
        assert!(!line.contains("store_hits"), "unexpected field in {line}");
        assert!(!line.contains("store_misses"));
        assert!(!line.contains("store_quarantined"));
        assert_eq!(
            Response::from_json(&Json::parse(&line).unwrap()).unwrap(),
            r
        );
    }

    #[test]
    fn malformed_lines_parse_to_errors_not_panics() {
        // Every line the reader loop can see must produce Ok or Err —
        // never a panic. These are the hand-picked nasty shapes; the
        // exhaustive randomized sweep lives in tests/prop_wire.rs.
        let lines = [
            "",
            "{",
            "}",
            "null",
            "true",
            "42",
            "\"just a string\"",
            "[1,2,3]",
            "{}",
            r#"{"schema":"grit-serve/v1"}"#,
            r#"{"schema":"grit-serve/v1","type":"submit"}"#,
            r#"{"schema":"grit-serve/v1","type":"submit","id":"not-a-number","spec":{}}"#,
            r#"{"schema":"grit-serve/v1","type":"submit","id":1,"spec":{"app":"BFS"}}"#,
            r#"{"schema":"grit-serve/v1","type":"submit","id":1,"spec":7}"#,
            r#"{"schema":"grit-serve/v1","type":42}"#,
            r#"{"schema":null,"type":"ping"}"#,
            "\u{0}\u{1}\u{2}garbage bytes",
            r#"{"schema":"grit-serve/v1","type":"ping""#, // truncated
        ];
        for line in lines {
            match Json::parse(line) {
                Ok(v) => {
                    let _ = Request::from_json(&v);
                    let _ = Response::from_json(&v);
                }
                Err(e) => assert!(
                    !format!("{e:?}").is_empty(),
                    "parse error must carry a message"
                ),
            }
        }
    }

    #[test]
    fn unknown_fields_are_tolerated_but_schema_mismatch_is_not() {
        let line = r#"{"schema":"grit-serve/v1","type":"submit","id":1,"future_flag":true,
                       "spec":{"app":"BFS","policy":"grit","novel_knob":42}}"#;
        let req = Request::from_json(&Json::parse(line).unwrap()).unwrap();
        match req {
            Request::Submit { id, spec } => {
                assert_eq!(id, 1);
                assert_eq!(spec.app, "BFS");
                assert_eq!(spec.policy, "grit");
            }
            other => panic!("parsed as {other:?}"),
        }
        let v2 = r#"{"schema":"grit-serve/v2","type":"ping"}"#;
        assert!(Request::from_json(&Json::parse(v2).unwrap())
            .unwrap_err()
            .contains("unsupported schema"));
        let untagged = r#"{"type":"ping"}"#;
        assert!(Request::from_json(&Json::parse(untagged).unwrap())
            .unwrap_err()
            .contains("missing schema"));
    }
}
