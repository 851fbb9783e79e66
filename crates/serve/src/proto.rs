//! The wire protocol: length-prefixed JSON frames.
//!
//! Every message — request, response, or streamed journal event — is one
//! *frame*: a 4-byte big-endian payload length followed by that many
//! bytes of UTF-8 JSON. The payload must be a single JSON value that
//! passes the strict `gadt-obs` validator and parses with the
//! `gadt-store` parser; no other encoder or decoder is involved, so the
//! server speaks exactly the dialect the knowledge store already
//! persists.
//!
//! Framing rules (enforced by [`read_frame`]):
//!
//! * a length of zero is a protocol error (every message is an object);
//! * a length above the negotiated cap ([`MAX_FRAME`] by default) is
//!   refused *before* any payload is read, so a garbage prefix cannot
//!   make the server allocate gigabytes;
//! * a clean EOF *between* frames reads as `Ok(None)` (the peer hung
//!   up); EOF *inside* a frame — truncated prefix or truncated payload —
//!   is an [`io::ErrorKind::UnexpectedEof`] error;
//! * payloads that are not valid UTF-8, fail JSON validation, or do not
//!   parse are [`io::ErrorKind::InvalidData`] errors.

use gadt_store::{parse, Json};
use std::io::{self, Read, Write};

/// Default maximum frame payload size: 8 MiB. Large enough for a full
/// source program or a journal dump, small enough that a hostile length
/// prefix cannot exhaust memory.
pub const MAX_FRAME: u32 = 8 * 1024 * 1024;

/// Reads one frame, returning `Ok(None)` on a clean EOF before the
/// first prefix byte.
///
/// # Errors
/// `UnexpectedEof` on truncation mid-frame, `InvalidData` on an
/// oversized/zero length prefix or an unparseable payload, plus any
/// transport error (including read timeouts, surfaced as
/// `WouldBlock`/`TimedOut`).
pub fn read_frame<R: Read>(r: &mut R, max_frame: u32) -> io::Result<Option<Json>> {
    let mut prefix = [0u8; 4];
    // Hand-rolled first read so a clean EOF between frames is Ok(None)
    // while a mid-prefix EOF stays an error.
    let mut got = 0usize;
    while got < 4 {
        match r.read(&mut prefix[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "eof inside frame length prefix",
                ))
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if got == 0 => return Err(e),
            Err(e)
                if got > 0
                    && matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
            {
                // Mid-prefix timeout: keep waiting for the rest — the
                // peer committed to a frame by sending the first byte.
                continue;
            }
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_be_bytes(prefix);
    if len == 0 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "zero-length frame",
        ));
    }
    if len > max_frame {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {max_frame}-byte cap"),
        ));
    }
    let mut payload = vec![0u8; len as usize];
    read_fully(r, &mut payload)?;
    decode(&payload).map(Some)
}

/// `read_exact` that rides out read timeouts: a frame in flight is
/// always drained to completion (or a real error).
fn read_fully<R: Read>(r: &mut R, buf: &mut [u8]) -> io::Result<()> {
    let mut got = 0usize;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "eof inside frame payload",
                ))
            }
            Ok(n) => got += n,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::Interrupted
                        | io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                ) => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

fn decode(payload: &[u8]) -> io::Result<Json> {
    let text = std::str::from_utf8(payload)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "frame payload is not UTF-8"))?;
    gadt_obs::json::validate(text).map_err(|(at, what)| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame payload fails JSON validation at byte {at}: {what}"),
        )
    })?;
    parse(text).ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            "frame payload did not parse as JSON",
        )
    })
}

/// Writes one frame (prefix + canonical serialization) and flushes.
///
/// # Errors
/// `InvalidData` when the encoded payload exceeds `max_frame`;
/// otherwise transport errors.
pub fn write_frame<W: Write>(w: &mut W, msg: &Json, max_frame: u32) -> io::Result<()> {
    let payload = msg.to_string();
    let len = u32::try_from(payload.len()).unwrap_or(u32::MAX);
    if len > max_frame || payload.len() > u32::MAX as usize {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "outgoing frame of {} bytes exceeds the {max_frame}-byte cap",
                payload.len()
            ),
        ));
    }
    w.write_all(&len.to_be_bytes())?;
    w.write_all(payload.as_bytes())?;
    w.flush()
}

/// A string field of a JSON object (`None` when absent or non-string).
pub fn str_field<'a>(msg: &'a Json, key: &str) -> Option<&'a str> {
    msg.get(key).and_then(Json::as_str)
}

/// An integer field of a JSON object.
pub fn int_field(msg: &Json, key: &str) -> Option<i64> {
    msg.get(key).and_then(Json::as_int)
}

/// A boolean field of a JSON object.
pub fn bool_field(msg: &Json, key: &str) -> Option<bool> {
    msg.get(key).and_then(Json::as_bool)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gadt_store::obj;
    use std::io::Cursor;

    fn frame_bytes(msg: &Json) -> Vec<u8> {
        let mut out = Vec::new();
        write_frame(&mut out, msg, MAX_FRAME).unwrap();
        out
    }

    #[test]
    fn frames_round_trip() {
        let msg = obj(vec![("op", Json::Str("ping".into())), ("n", Json::Int(42))]);
        let bytes = frame_bytes(&msg);
        let mut cur = Cursor::new(bytes);
        let back = read_frame(&mut cur, MAX_FRAME).unwrap().unwrap();
        assert_eq!(back.get("op").and_then(Json::as_str), Some("ping"));
        assert_eq!(back.get("n").and_then(Json::as_int), Some(42));
        // Clean EOF after the frame.
        assert!(read_frame(&mut cur, MAX_FRAME).unwrap().is_none());
    }

    #[test]
    fn truncated_prefix_and_payload_are_errors() {
        let bytes = frame_bytes(&obj(vec![("op", Json::Str("ping".into()))]));
        for cut in 1..bytes.len() {
            let mut cur = Cursor::new(bytes[..cut].to_vec());
            let err = read_frame(&mut cur, MAX_FRAME).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut at {cut}");
        }
    }

    #[test]
    fn oversized_and_zero_prefixes_are_refused_without_reading() {
        let mut huge = u32::MAX.to_be_bytes().to_vec();
        huge.extend_from_slice(b"{}");
        let err = read_frame(&mut Cursor::new(huge), MAX_FRAME).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        let zero = 0u32.to_be_bytes().to_vec();
        let err = read_frame(&mut Cursor::new(zero), MAX_FRAME).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn garbage_payloads_are_invalid_data() {
        for payload in [&b"not json"[..], b"{\"open\":", b"\xff\xfe\x00"] {
            let mut bytes = (payload.len() as u32).to_be_bytes().to_vec();
            bytes.extend_from_slice(payload);
            let err = read_frame(&mut Cursor::new(bytes), MAX_FRAME).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{payload:?}");
        }
    }

    #[test]
    fn multi_mib_frames_decode_in_linear_time() {
        // A 4 MiB `create` source, half the default cap: decoding must not
        // rescan the rest of the payload per character.
        let source = "begin writeln('π ≈ 3.14'); x := \"y\" end;\n".repeat(96 * 1024);
        assert!(source.len() > 4 << 20);
        let msg = obj(vec![
            ("op", Json::Str("create".into())),
            ("source", Json::Str(source.clone())),
        ]);
        let started = std::time::Instant::now();
        let back = read_frame(&mut Cursor::new(frame_bytes(&msg)), MAX_FRAME)
            .unwrap()
            .unwrap();
        let took = started.elapsed();
        assert_eq!(str_field(&back, "source"), Some(source.as_str()));
        assert!(took.as_secs() < 10, "read_frame took {took:?}");
    }

    #[test]
    fn outgoing_frames_respect_the_cap() {
        let big = Json::Str("x".repeat(64));
        let mut out = Vec::new();
        let err = write_frame(&mut out, &big, 16).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(out.is_empty(), "nothing may be written before the check");
    }
}
