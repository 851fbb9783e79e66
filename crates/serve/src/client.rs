//! A typed in-process client for the serve protocol.
//!
//! One [`Client`] wraps one connection (TCP or unix) and issues one
//! request frame per call, blocking on the single response frame. The
//! integration suite drives whole debugging campaigns through this
//! type, and `gadt-serve --selftest` uses it as the CI smoke client.

use crate::proto::{bool_field, int_field, read_frame, str_field, write_frame, MAX_FRAME};
use crate::server::ServerAddr;
use gadt::handle::Verdict;
use gadt_pascal::value::Value;
use gadt_store::{obj, value_to_json, Json};
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;

enum Transport {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Read for Transport {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Transport::Tcp(s) => s.read(buf),
            Transport::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Transport {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Transport::Tcp(s) => s.write(buf),
            Transport::Unix(s) => s.write(buf),
        }
    }
    fn flush(&mut self) -> io::Result<()> {
        match self {
            Transport::Tcp(s) => s.flush(),
            Transport::Unix(s) => s.flush(),
        }
    }
}

/// Options for [`Client::create_session`]; `Default` matches the
/// server's defaults (VM engine, top-down, slicing on, pooling on,
/// default limits).
#[derive(Debug, Clone, Default)]
pub struct SessionOptions {
    /// `"vm"` or `"tree"` (server default: vm).
    pub engine: Option<String>,
    /// `"top_down"`, `"divide_and_query"`, `"dq_opt"`, or
    /// `"knowledge_weighted"` (weighs pool-answerable nodes as free).
    pub strategy: Option<String>,
    /// Slicing on error indications.
    pub slicing: Option<bool>,
    /// Answer questions from the pooled knowledge store.
    pub pool: Option<bool>,
    /// Interpreter step budget.
    pub max_steps: Option<i64>,
    /// Interpreter depth budget.
    pub max_depth: Option<i64>,
}

/// The reply of `ask`/`answer`: either the next question or the
/// session's verdict.
#[derive(Debug, Clone)]
pub enum AskReply {
    /// A question awaits a verdict.
    Question {
        /// The unit asked about.
        unit: String,
        /// The rendered query (original-program coordinates).
        query: String,
        /// The unit's input values — the store key half, so clients can
        /// later verify persisted knowledge via `knowledge`.
        ins: Vec<Value>,
        /// Questions answered so far.
        asked: u64,
    },
    /// The session finished.
    Done {
        /// The buggy unit, when one was localized.
        localized: Option<String>,
        /// The rendered node the bug was localized at.
        rendering: Option<String>,
        /// Total questions answered.
        questions: u64,
        /// Slices taken.
        slices: u64,
    },
}

/// One protocol connection.
pub struct Client {
    stream: Transport,
}

fn proto_err(msg: impl std::fmt::Display) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// Disables Nagle on a fresh connection: the protocol writes a 4-byte
/// prefix and a small payload per request, and coalescing them against
/// the peer's delayed ACK costs ~40ms per round-trip.
fn tcp_connect(s: TcpStream) -> TcpStream {
    let _ = s.set_nodelay(true);
    s
}

impl Client {
    /// Connects to a started server.
    ///
    /// # Errors
    /// Connection failures.
    pub fn connect(addr: &ServerAddr) -> io::Result<Client> {
        let stream = match addr {
            ServerAddr::Tcp(a) => Transport::Tcp(tcp_connect(TcpStream::connect(a)?)),
            ServerAddr::Unix(p) => Transport::Unix(UnixStream::connect(p)?),
        };
        Ok(Client { stream })
    }

    /// Connects to `tcp:HOST:PORT` or `unix:PATH`.
    ///
    /// # Errors
    /// Malformed specs and connection failures.
    pub fn connect_to(spec: &str) -> io::Result<Client> {
        let stream = if let Some(addr) = spec.strip_prefix("tcp:") {
            Transport::Tcp(tcp_connect(TcpStream::connect(addr)?))
        } else if let Some(path) = spec.strip_prefix("unix:") {
            Transport::Unix(UnixStream::connect(path)?)
        } else {
            return Err(proto_err(format!(
                "address `{spec}` must be tcp:HOST:PORT or unix:PATH"
            )));
        };
        Ok(Client { stream })
    }

    /// Sends `payload` as the bytes of one frame, unchecked, and returns
    /// the reply frame whether or not it reports success: for probing
    /// the server with frames the encoder never writes.
    ///
    /// # Errors
    /// Transport errors, and a reply that is not a frame.
    pub fn exchange_raw(&mut self, payload: &[u8]) -> io::Result<Json> {
        let len = u32::try_from(payload.len()).map_err(proto_err)?;
        let mut frame = len.to_be_bytes().to_vec();
        frame.extend_from_slice(payload);
        self.stream.write_all(&frame)?;
        self.stream.flush()?;
        read_frame(&mut self.stream, MAX_FRAME)?
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "server hung up"))
    }

    /// Sends one request object and reads its response frame. Responses
    /// with `"ok": false` become `InvalidData` errors carrying the
    /// server's message.
    ///
    /// # Errors
    /// Transport errors, early EOF, and server-side errors.
    pub fn request(&mut self, msg: &Json) -> io::Result<Json> {
        write_frame(&mut self.stream, msg, MAX_FRAME)?;
        let resp = read_frame(&mut self.stream, MAX_FRAME)?
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "server hung up"))?;
        if bool_field(&resp, "ok") == Some(true) {
            Ok(resp)
        } else {
            Err(proto_err(
                str_field(&resp, "error").unwrap_or("unspecified server error"),
            ))
        }
    }

    /// Round-trips a `ping`.
    ///
    /// # Errors
    /// See [`Client::request`].
    pub fn ping(&mut self) -> io::Result<bool> {
        let resp = self.request(&obj(vec![("op", Json::Str("ping".into()))]))?;
        Ok(bool_field(&resp, "pong") == Some(true))
    }

    /// Compiles `source` into a fresh server-side session; returns its
    /// id.
    ///
    /// # Errors
    /// Compile/transform failures are surfaced as server errors.
    pub fn create_session(&mut self, source: &str, opts: &SessionOptions) -> io::Result<u64> {
        let mut fields = vec![
            ("op", Json::Str("create".into())),
            ("source", Json::Str(source.to_string())),
        ];
        if let Some(e) = &opts.engine {
            fields.push(("engine", Json::Str(e.clone())));
        }
        if let Some(s) = &opts.strategy {
            fields.push(("strategy", Json::Str(s.clone())));
        }
        if let Some(b) = opts.slicing {
            fields.push(("slicing", Json::Bool(b)));
        }
        if let Some(b) = opts.pool {
            fields.push(("pool", Json::Bool(b)));
        }
        if let Some(n) = opts.max_steps {
            fields.push(("max_steps", Json::Int(n)));
        }
        if let Some(n) = opts.max_depth {
            fields.push(("max_depth", Json::Int(n)));
        }
        let resp = self.request(&obj(fields))?;
        int_field(&resp, "session")
            .map(|n| n as u64)
            .ok_or_else(|| proto_err("create response missing `session`"))
    }

    /// Traces the session's program on each input row; returns the
    /// captured outputs, in input order.
    ///
    /// # Errors
    /// Runtime errors of the subject program are surfaced as server
    /// errors.
    pub fn trace(&mut self, session: u64, inputs: &[Vec<Value>]) -> io::Result<Vec<String>> {
        let rows = Json::Array(
            inputs
                .iter()
                .map(|row| Json::Array(row.iter().map(value_to_json).collect()))
                .collect(),
        );
        let resp = self.request(&obj(vec![
            ("op", Json::Str("trace".into())),
            ("session", Json::Int(session as i64)),
            ("inputs", rows),
        ]))?;
        let outputs = resp
            .get("outputs")
            .and_then(Json::as_array)
            .ok_or_else(|| proto_err("trace response missing `outputs`"))?;
        Ok(outputs
            .iter()
            .filter_map(|o| o.as_str().map(str::to_string))
            .collect())
    }

    fn ask_reply(resp: &Json) -> io::Result<AskReply> {
        if bool_field(resp, "done") == Some(true) {
            return Ok(AskReply::Done {
                localized: str_field(resp, "localized").map(str::to_string),
                rendering: str_field(resp, "rendering").map(str::to_string),
                questions: int_field(resp, "questions").unwrap_or(0) as u64,
                slices: int_field(resp, "slices").unwrap_or(0) as u64,
            });
        }
        let q = resp
            .get("question")
            .ok_or_else(|| proto_err("reply missing `question`"))?;
        let ins = q
            .get("ins")
            .and_then(Json::as_array)
            .map(|pairs| {
                pairs
                    .iter()
                    .filter_map(|p| p.get("value").and_then(gadt_store::value_from_json))
                    .collect()
            })
            .unwrap_or_default();
        Ok(AskReply::Question {
            unit: str_field(q, "unit").unwrap_or_default().to_string(),
            query: str_field(q, "query").unwrap_or_default().to_string(),
            ins,
            asked: int_field(resp, "asked").unwrap_or(0) as u64,
        })
    }

    /// Starts (or resumes) the debug traversal on `run`; pooled
    /// knowledge is consumed server-side before the first question
    /// comes back.
    ///
    /// # Errors
    /// See [`Client::request`].
    pub fn ask(&mut self, session: u64, run: usize) -> io::Result<AskReply> {
        let resp = self.request(&obj(vec![
            ("op", Json::Str("ask".into())),
            ("session", Json::Int(session as i64)),
            ("run", Json::Int(run as i64)),
        ]))?;
        Self::ask_reply(&resp)
    }

    /// Answers the pending question. The server fsyncs definite answers
    /// into the pooled store *before* this returns — an acknowledged
    /// answer survives a server kill.
    ///
    /// # Errors
    /// See [`Client::request`].
    pub fn answer(&mut self, session: u64, verdict: &Verdict) -> io::Result<AskReply> {
        let mut fields = vec![
            ("op", Json::Str("answer".into())),
            ("session", Json::Int(session as i64)),
        ];
        match verdict {
            Verdict::Correct => fields.push(("verdict", Json::Str("yes".into()))),
            Verdict::Incorrect { wrong_output } => {
                fields.push(("verdict", Json::Str("no".into())));
                if let Some(k) = wrong_output {
                    fields.push(("wrong_output", Json::Int(*k as i64)));
                }
            }
            Verdict::DontKnow => fields.push(("verdict", Json::Str("dont_know".into()))),
        }
        let resp = self.request(&obj(fields))?;
        Self::ask_reply(&resp)
    }

    /// Requests a dynamic slice for output `output` of `unit`'s first
    /// call in `run`; returns `(events, stmts, calls)`.
    ///
    /// # Errors
    /// See [`Client::request`].
    pub fn slice(
        &mut self,
        session: u64,
        run: usize,
        unit: &str,
        output: usize,
    ) -> io::Result<(u64, u64, u64)> {
        let resp = self.request(&obj(vec![
            ("op", Json::Str("slice".into())),
            ("session", Json::Int(session as i64)),
            ("run", Json::Int(run as i64)),
            ("unit", Json::Str(unit.to_string())),
            ("output", Json::Int(output as i64)),
        ]))?;
        Ok((
            int_field(&resp, "events").unwrap_or(0) as u64,
            int_field(&resp, "stmts").unwrap_or(0) as u64,
            int_field(&resp, "calls").unwrap_or(0) as u64,
        ))
    }

    /// The session's journal fingerprint (timestamp-free, thread-count
    /// invariant).
    ///
    /// # Errors
    /// See [`Client::request`].
    pub fn journal_fingerprint(&mut self, session: u64) -> io::Result<String> {
        let resp = self.request(&obj(vec![
            ("op", Json::Str("journal".into())),
            ("session", Json::Int(session as i64)),
        ]))?;
        str_field(&resp, "fingerprint")
            .map(str::to_string)
            .ok_or_else(|| proto_err("journal response missing `fingerprint`"))
    }

    /// Looks a `(unit, In-values)` judgement up in the pooled store.
    ///
    /// # Errors
    /// See [`Client::request`].
    pub fn knowledge(&mut self, unit: &str, ins: &[Value]) -> io::Result<Option<Verdict>> {
        let resp = self.request(&obj(vec![
            ("op", Json::Str("knowledge".into())),
            ("unit", Json::Str(unit.to_string())),
            ("ins", Json::Array(ins.iter().map(value_to_json).collect())),
        ]))?;
        if bool_field(&resp, "found") != Some(true) {
            return Ok(None);
        }
        Ok(match str_field(&resp, "verdict") {
            Some("yes") => Some(Verdict::Correct),
            Some("no") => Some(Verdict::Incorrect {
                wrong_output: int_field(&resp, "wrong_output").map(|k| k as usize),
            }),
            _ => None,
        })
    }

    /// Server-wide statistics, as the raw response object.
    ///
    /// # Errors
    /// See [`Client::request`].
    pub fn stats(&mut self) -> io::Result<Json> {
        self.request(&obj(vec![("op", Json::Str("stats".into()))]))
    }

    /// Compacts every shard now; returns how many were compacted.
    ///
    /// # Errors
    /// See [`Client::request`].
    pub fn compact(&mut self) -> io::Result<u64> {
        let resp = self.request(&obj(vec![("op", Json::Str("compact".into()))]))?;
        Ok(int_field(&resp, "compacted").unwrap_or(0) as u64)
    }

    /// Asks the server to stop accepting and shut down.
    ///
    /// # Errors
    /// See [`Client::request`].
    pub fn shutdown_server(&mut self) -> io::Result<()> {
        self.request(&obj(vec![("op", Json::Str("shutdown".into()))]))?;
        Ok(())
    }

    /// Turns this connection into a journal subscription for `session`:
    /// the server pushes every existing journal event line, then one
    /// frame per new event as other connections drive the session.
    ///
    /// # Errors
    /// See [`Client::request`].
    pub fn subscribe(mut self, session: u64) -> io::Result<EventStream> {
        self.request(&obj(vec![
            ("op", Json::Str("subscribe".into())),
            ("session", Json::Int(session as i64)),
        ]))?;
        Ok(EventStream {
            stream: self.stream,
        })
    }
}

/// The read side of a journal subscription.
pub struct EventStream {
    stream: Transport,
}

impl EventStream {
    /// Blocks for the next journal event line; `Ok(None)` when the
    /// server closes the subscription (shutdown).
    ///
    /// # Errors
    /// Transport errors.
    pub fn next_event(&mut self) -> io::Result<Option<String>> {
        match read_frame(&mut self.stream, MAX_FRAME)? {
            None => Ok(None),
            Some(frame) => Ok(Some(
                str_field(&frame, "event").unwrap_or_default().to_string(),
            )),
        }
    }
}
