//! Framing robustness: garbage, truncated, oversized, and trickled
//! frames must never take the server down — a later well-formed client
//! always gets service.

use gadt_serve::{proto, Client, Listen, Server, ServerAddr, ServerConfig, ServerHandle};
use gadt_store::{obj, Json, TempDir};
use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

fn start_server(dir: &TempDir, threads: usize) -> ServerHandle {
    let mut cfg = ServerConfig::new(Listen::Tcp("127.0.0.1:0".into()), dir.path().join("store"));
    cfg.threads = threads;
    cfg.shards = 2;
    Server::start(cfg).expect("server starts")
}

fn raw_connect(handle: &ServerHandle) -> TcpStream {
    let ServerAddr::Tcp(addr) = handle.addr() else {
        panic!("expected tcp server");
    };
    TcpStream::connect(addr).expect("raw connect")
}

#[test]
fn garbage_length_prefixes_are_refused_and_survived() {
    let dir = TempDir::new("serve-framing-garbage");
    let handle = start_server(&dir, 2);

    // Oversized prefix: refused with an error frame before any payload
    // is read, then the connection closes.
    let mut s = raw_connect(&handle);
    s.write_all(&u32::MAX.to_be_bytes()).unwrap();
    s.flush().unwrap();
    let resp = proto::read_frame(&mut s, proto::MAX_FRAME)
        .expect("error frame arrives")
        .expect("not eof");
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false));
    let err = resp.get("error").and_then(Json::as_str).unwrap_or("");
    assert!(err.contains("cap"), "{err}");
    assert!(
        proto::read_frame(&mut s, proto::MAX_FRAME)
            .unwrap()
            .is_none(),
        "connection closes after a framing error"
    );

    // Zero-length prefix: same treatment.
    let mut s = raw_connect(&handle);
    s.write_all(&0u32.to_be_bytes()).unwrap();
    let resp = proto::read_frame(&mut s, proto::MAX_FRAME)
        .unwrap()
        .unwrap();
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false));

    // Non-JSON payload under a correct prefix.
    let mut s = raw_connect(&handle);
    let junk = b"certainly not json";
    s.write_all(&(junk.len() as u32).to_be_bytes()).unwrap();
    s.write_all(junk).unwrap();
    let resp = proto::read_frame(&mut s, proto::MAX_FRAME)
        .unwrap()
        .unwrap();
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false));

    // The server is still healthy for well-formed clients.
    let mut client = Client::connect(handle.addr()).unwrap();
    assert!(client.ping().unwrap());
    drop(client);
    handle.shutdown().unwrap();
}

#[test]
fn truncated_frames_do_not_wedge_workers() {
    let dir = TempDir::new("serve-framing-trunc");
    let handle = start_server(&dir, 2);

    // Claim 64 bytes, send 10, hang up: the worker drains the timeout,
    // sees EOF mid-payload, and drops the connection.
    for _ in 0..3 {
        let mut s = raw_connect(&handle);
        s.write_all(&64u32.to_be_bytes()).unwrap();
        s.write_all(b"0123456789").unwrap();
        s.flush().unwrap();
        drop(s);
    }
    // Partial prefix, then hang up.
    let mut s = raw_connect(&handle);
    s.write_all(&[0, 0]).unwrap();
    drop(s);

    let mut client = Client::connect(handle.addr()).unwrap();
    assert!(client.ping().unwrap());
    drop(client);
    handle.shutdown().unwrap();
}

#[test]
fn byte_by_byte_writes_still_parse() {
    let dir = TempDir::new("serve-framing-trickle");
    let handle = start_server(&dir, 2);

    let mut bytes = Vec::new();
    proto::write_frame(
        &mut bytes,
        &obj(vec![("op", Json::Str("ping".into()))]),
        proto::MAX_FRAME,
    )
    .unwrap();

    let mut s = raw_connect(&handle);
    for b in bytes {
        s.write_all(&[b]).unwrap();
        s.flush().unwrap();
        std::thread::sleep(Duration::from_millis(1));
    }
    let resp = proto::read_frame(&mut s, proto::MAX_FRAME)
        .expect("response")
        .expect("not eof");
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(resp.get("pong").and_then(Json::as_bool), Some(true));
    drop(s);
    handle.shutdown().unwrap();
}

#[test]
fn interleaved_clients_share_one_server() {
    let dir = TempDir::new("serve-framing-interleave");
    let handle = start_server(&dir, 4);

    let mut a = Client::connect(handle.addr()).unwrap();
    let mut b = Client::connect(handle.addr()).unwrap();
    for round in 0..10 {
        assert!(a.ping().unwrap(), "round {round}");
        // A hostile third connection in every round.
        let mut bad = raw_connect(&handle);
        bad.write_all(&u32::MAX.to_be_bytes()).unwrap();
        drop(bad);
        assert!(b.ping().unwrap(), "round {round}");
        let stats = b.stats().unwrap();
        assert!(stats.get("requests").and_then(Json::as_int).unwrap_or(0) > 0);
    }
    drop(a);
    drop(b);
    let report = handle.shutdown().unwrap();
    assert!(report.requests >= 30);
}

/// One JSON grammar, four readers. Each row is a payload and what the
/// grammar makes of it: `None` accepts it, `Some((at, what))` rejects it
/// with that byte offset and message. The offsets and messages of the
/// rows the `gadt-obs` validator already rejected were taken from it
/// before the two parsers became one.
const GRAMMAR: &[(&str, Option<(usize, &str)>)] = &[
    ("{}", None),
    ("[1, 2.5, -3e4]", None),
    (
        r#"{"k":"enter","name":"a b","fields":{"x":true,"y":null}}"#,
        None,
    ),
    (r#""just a string""#, None),
    ("  42  ", None),
    ("01", None),
    (r#""Aé π/\/""#, None),
    (r#""\u00e9\u001F\uFFFD""#, None),
    ("", Some((0, "expected a JSON value"))),
    ("{", Some((1, "expected `\"`"))),
    ("{\"a\":}", Some((5, "expected a JSON value"))),
    ("[1,]", Some((3, "expected a JSON value"))),
    ("\"unterminated", Some((13, "unterminated string"))),
    ("01x", Some((2, "trailing characters after JSON value"))),
    (
        "{} trailing",
        Some((3, "trailing characters after JSON value")),
    ),
    ("{\"a\"\u{1}:1}", Some((4, "expected `:`"))),
    ("\"open", Some((5, "unterminated string"))),
    ("{} junk", Some((3, "trailing characters after JSON value"))),
    ("nul", Some((0, "expected `null`"))),
    ("\"a\u{1}b\"", Some((2, "control character in string"))),
    ("\"a\nb\"", Some((2, "control character in string"))),
    ("\"π open", Some((8, "unterminated string"))),
    ("\"tail\\", Some((6, "invalid escape"))),
    (r#""\u+041""#, Some((3, "invalid \\u escape"))),
    (r#"{"a":"\u+00e9"}"#, Some((8, "invalid \\u escape"))),
    (r#""\ud800""#, Some((3, "surrogate \\u escape"))),
    (r#""\uDFFF""#, Some((3, "surrogate \\u escape"))),
    (r#"["\ud83d\ude00"]"#, Some((4, "surrogate \\u escape"))),
];

/// `levels` arrays nested in one another.
fn nested_arrays(levels: usize) -> String {
    format!("{}{}", "[".repeat(levels), "]".repeat(levels))
}

#[test]
fn validator_parser_frames_and_recovery_share_one_json_grammar() {
    for &(text, want) in GRAMMAR {
        let want = want.map(|(at, what)| (at, what.to_string()));
        check_grammar_row(text, want.clone(), want.is_none());
    }
    // Nesting is capped: the deepest accepted payload, and one level
    // more, rejected at its innermost bracket. A WAL line holds its
    // payload one level down, so only the shallower row survives there.
    let cap = gadt_obs::json::MAX_DEPTH;
    check_grammar_row(&nested_arrays(cap), None, false);
    check_grammar_row(&nested_arrays(cap - 1), None, true);
    check_grammar_row(
        &nested_arrays(cap + 1),
        Some((cap, format!("nesting deeper than {cap} levels"))),
        false,
    );
}

/// Checks one payload against all four readers: `want` is what the
/// grammar makes of it, `wal_kept` whether recovery keeps a WAL line
/// holding it.
fn check_grammar_row(text: &str, want: Option<(usize, String)>, wal_kept: bool) {
    use std::io::Cursor;
    assert_eq!(
        gadt_obs::json::validate(text).err(),
        want,
        "validate {text:?}"
    );
    assert_eq!(
        gadt_store::parse(text).is_some(),
        want.is_none(),
        "gadt_store::parse {text:?}"
    );

    // A frame carrying the payload (an empty payload is a zero-length
    // frame, refused before any JSON is read).
    if !text.is_empty() {
        let mut bytes = (text.len() as u32).to_be_bytes().to_vec();
        bytes.extend_from_slice(text.as_bytes());
        let read = proto::read_frame(&mut Cursor::new(bytes), proto::MAX_FRAME);
        match &want {
            None => assert!(read.unwrap().is_some(), "read_frame {text:?}"),
            Some((at, what)) => assert_eq!(
                read.unwrap_err().to_string(),
                format!("frame payload fails JSON validation at byte {at}: {what}"),
                "read_frame {text:?}"
            ),
        }
    }

    // A WAL line holding the payload as a verdict.
    let dir = TempDir::new("serve-json-grammar");
    {
        let store = gadt_store::KnowledgeStore::open(dir.path()).unwrap();
        drop(store);
    }
    let wal = dir.path().join("wal.jsonl");
    let mut file = std::fs::OpenOptions::new().append(true).open(&wal).unwrap();
    writeln!(file, r#"{{"k":"verdict","key":"row","payload":{text}}}"#).unwrap();
    drop(file);
    let store = gadt_store::KnowledgeStore::open(dir.path()).unwrap();
    assert_eq!(
        store.recovery().wal_records,
        usize::from(wal_kept),
        "recovery {text:?}"
    );
}

/// A 200 KB frame of 100 000 nested arrays, far under the frame cap,
/// once overflowed the stack of the thread reading it and aborted the
/// whole server. It is now refused as invalid data, on a stack far
/// smaller than a server worker's.
#[test]
fn deeply_nested_frame_is_invalid_data() {
    let text = nested_arrays(100_000);
    let mut bytes = (text.len() as u32).to_be_bytes().to_vec();
    bytes.extend_from_slice(text.as_bytes());
    let read = std::thread::Builder::new()
        .stack_size(256 << 10)
        .spawn(move || proto::read_frame(&mut std::io::Cursor::new(bytes), proto::MAX_FRAME))
        .unwrap()
        .join()
        .expect("reader thread survives");
    let err = read.unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("nesting deeper than"), "{err}");
}

/// A small seeded generator (SplitMix64), so the edits below repeat.
struct Seeded(u64);

impl Seeded {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A draw in `0..n` (`n > 0`).
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Bytes a replacement draws from: Pascal punctuation, digits, letters
/// and a byte that is not UTF-8 on its own.
const EDIT_BYTES: &[u8] = b";:=.,()[]+-*/<>' 019azAZ\n\xff";

/// One seeded byte edit of `source`: replace a byte, delete a short
/// span, duplicate a short span, or truncate.
fn edit(source: &str, rng: &mut Seeded) -> String {
    let mut bytes = source.as_bytes().to_vec();
    let at = rng.below(bytes.len());
    let span = (1 + rng.below(8)).min(bytes.len() - at);
    match rng.below(4) {
        0 => bytes[at] = EDIT_BYTES[rng.below(EDIT_BYTES.len())],
        1 => {
            bytes.drain(at..at + span);
        }
        2 => {
            let copy = bytes[at..at + span].to_vec();
            bytes.splice(at..at, copy);
        }
        _ => bytes.truncate(at),
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Sends `msg` and checks the reply is a well-formed frame: a boolean
/// `ok`, and a string `error` when `ok` is false. Returns the reply
/// when `ok` is true.
fn checked(client: &mut Client, msg: &Json) -> Option<Json> {
    let reply = client
        .exchange_raw(msg.to_string().as_bytes())
        .unwrap_or_else(|e| panic!("no reply frame to {msg}: {e}"));
    match reply.get("ok").and_then(Json::as_bool) {
        Some(true) => Some(reply),
        Some(false) => {
            assert!(
                reply.get("error").and_then(Json::as_str).is_some(),
                "error frame without a string `error`: {reply}"
            );
            None
        }
        None => panic!("reply without a boolean `ok` to {msg}: {reply}"),
    }
}

fn request(op: &str, fields: Vec<(&str, Json)>) -> Json {
    let mut all = vec![("op", Json::Str(op.into()))];
    all.extend(fields);
    obj(all)
}

/// Edits of each fixture.
const EDITS_PER_FIXTURE: usize = 400;

/// Most answers one session gives: each is fsynced before its reply.
const ANSWERS_PER_SESSION: usize = 3;

/// Hostile `create` payloads: seeded byte edits of every paper fixture
/// go through `create`, then `trace` on one input row, then `ask` and
/// seeded `answer`s, some naming an output past the question's outputs.
/// Every request gets a well-formed reply frame, and the server still
/// pongs and shuts down cleanly afterwards.
#[test]
fn byte_edited_sources_get_reply_frames_through_a_whole_session() {
    let dir = TempDir::new("serve-hostile-create");
    let handle = start_server(&dir, 2);
    let mut client = Client::connect(handle.addr()).unwrap();
    let mut rng = Seeded(2026);
    let (mut created, mut traced, mut answered) = (0, 0, 0);
    for (_, fixture) in gadt_pascal::testprogs::ALL {
        for _ in 0..EDITS_PER_FIXTURE {
            let source = edit(fixture, &mut rng);
            let Some(reply) = checked(
                &mut client,
                &request(
                    "create",
                    vec![
                        ("source", Json::Str(source)),
                        ("max_steps", Json::Int(100_000)),
                        ("max_depth", Json::Int(64)),
                        ("pool", Json::Bool(false)),
                    ],
                ),
            ) else {
                continue;
            };
            created += 1;
            let sid = reply
                .get("session")
                .cloned()
                .expect("create names a session");
            let row = (0..rng.below(3))
                .map(|_| Json::Int(rng.below(5) as i64))
                .collect();
            let inputs = Json::Array(vec![Json::Array(row)]);
            let session = || ("session", sid.clone());
            if checked(
                &mut client,
                &request("trace", vec![session(), ("inputs", inputs)]),
            )
            .is_none()
            {
                continue;
            }
            traced += 1;
            let mut reply = checked(&mut client, &request("ask", vec![session()]));
            for _ in 0..ANSWERS_PER_SESSION {
                let Some(question) = reply.as_ref().and_then(|r| r.get("question")) else {
                    break;
                };
                let outs = question
                    .get("outs")
                    .and_then(Json::as_array)
                    .map_or(0, |o| o.len());
                let mut fields = vec![session()];
                match rng.below(4) {
                    0 => fields.push(("verdict", Json::Str("yes".into()))),
                    1 => fields.push(("verdict", Json::Str("no".into()))),
                    2 => fields.push(("verdict", Json::Str("dont_know".into()))),
                    _ => {
                        fields.push(("verdict", Json::Str("no".into())));
                        let past = outs + rng.below(3);
                        fields.push(("wrong_output", Json::Int(past as i64)));
                    }
                }
                reply = checked(&mut client, &request("answer", fields));
                answered += 1;
            }
        }
    }
    assert!(
        created > 0 && traced > 0 && answered > 0,
        "the edits exercised every request: {created} created, {traced} traced, {answered} answered"
    );
    assert!(client.ping().unwrap());
    drop(client);
    handle.shutdown().unwrap();
}
