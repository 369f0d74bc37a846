//! Compact binary framing for the v2 wire protocol.
//!
//! After a client negotiates `{"verb": "upgrade", "frame": "binary"}` on
//! a JSON-lines connection (see `PROTOCOL.md`), both directions switch to
//! length-prefixed frames: a little-endian `u32` payload length followed
//! by that many bytes of the tagged binary encoding below. The payload
//! encodes exactly one JSON value (a request or a response), so the two
//! framings carry identical information — binary skips the text
//! parse/escape cost and the newline-delimiter restriction.
//!
//! Encoding (one tag byte, then tag-specific data; all integers
//! little-endian):
//!
//! | tag | value |
//! |-----|-------|
//! | `0` | `null` |
//! | `1` | `false` |
//! | `2` | `true` |
//! | `3` | non-negative integer: `u64` |
//! | `4` | negative integer: `i64` |
//! | `5` | float: `f64` bits |
//! | `6` | string: `u32` byte length + UTF-8 bytes |
//! | `7` | array: `u32` count + that many encoded values |
//! | `8` | object: `u32` count + that many (string, value) pairs |

use serde_json::{Map, Number, Value};

/// Maximum accepted frame payload (16 MiB): large enough for any real
/// instance or response, small enough that a corrupt length prefix
/// cannot make the server allocate unboundedly. JSON-lines connections
/// cap a line at the same length.
pub const MAX_FRAME_LEN: u32 = 16 * 1024 * 1024;

/// Deepest nesting of arrays and objects [`decode_value`] accepts, the
/// same limit as the JSON parser's. The decoder recurses once per level,
/// so the limit keeps a frame of nested array tags from overflowing the
/// stack.
pub const MAX_DEPTH: usize = 128;

/// Encodes one value into the tagged binary form, appending to `out`.
pub fn encode_value(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Null => out.push(0),
        Value::Bool(false) => out.push(1),
        Value::Bool(true) => out.push(2),
        Value::Number(n) => match (n.as_u64(), n.as_i64()) {
            (Some(u), _) => {
                out.push(3);
                out.extend_from_slice(&u.to_le_bytes());
            }
            (None, Some(i)) => {
                out.push(4);
                out.extend_from_slice(&i.to_le_bytes());
            }
            (None, None) => {
                out.push(5);
                out.extend_from_slice(&n.as_f64().to_le_bytes());
            }
        },
        Value::String(s) => {
            out.push(6);
            encode_str(s, out);
        }
        Value::Array(items) => {
            out.push(7);
            out.extend_from_slice(&(items.len() as u32).to_le_bytes());
            for item in items {
                encode_value(item, out);
            }
        }
        Value::Object(map) => {
            out.push(8);
            out.extend_from_slice(&(map.len() as u32).to_le_bytes());
            for (k, item) in map.iter() {
                encode_str(k, out);
                encode_value(item, out);
            }
        }
    }
}

fn encode_str(s: &str, out: &mut Vec<u8>) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// Decodes one value from `buf`, which must contain exactly one encoded
/// value (the frame layer has already stripped the length prefix).
/// Nesting deeper than [`MAX_DEPTH`] is an error.
pub fn decode_value(buf: &[u8]) -> Result<Value, String> {
    let mut pos = 0;
    let v = decode(buf, &mut pos, 0)?;
    if pos != buf.len() {
        return Err(format!("trailing bytes in frame at offset {pos}"));
    }
    Ok(v)
}

/// Decodes one value whose enclosing arrays and objects number `depth`.
fn decode(buf: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
    let tag = *buf.get(*pos).ok_or("truncated frame: missing tag")?;
    if matches!(tag, 7 | 8) && depth >= MAX_DEPTH {
        return Err(format!(
            "frame nesting exceeds the recursion limit of {MAX_DEPTH} at offset {pos}"
        ));
    }
    *pos += 1;
    Ok(match tag {
        0 => Value::Null,
        1 => Value::Bool(false),
        2 => Value::Bool(true),
        3 => Value::Number(Number::from_u64(u64::from_le_bytes(take(buf, pos)?))),
        4 => Value::Number(Number::from_i64(i64::from_le_bytes(take(buf, pos)?))),
        5 => Value::Number(Number::from_f64(f64::from_le_bytes(take(buf, pos)?))),
        6 => Value::String(decode_str(buf, pos)?),
        7 => {
            let count = decode_len(buf, pos)?;
            let mut items = Vec::new();
            for _ in 0..count {
                items.push(decode(buf, pos, depth + 1)?);
            }
            Value::Array(items)
        }
        8 => {
            let count = decode_len(buf, pos)?;
            let mut map = Map::new();
            for _ in 0..count {
                let k = decode_str(buf, pos)?;
                let v = decode(buf, pos, depth + 1)?;
                map.insert(k, v);
            }
            Value::Object(map)
        }
        other => return Err(format!("unknown frame tag {other}")),
    })
}

fn take<const N: usize>(buf: &[u8], pos: &mut usize) -> Result<[u8; N], String> {
    let bytes = buf
        .get(*pos..*pos + N)
        .ok_or("truncated frame: short fixed field")?;
    *pos += N;
    Ok(bytes.try_into().expect("slice length checked above"))
}

fn decode_len(buf: &[u8], pos: &mut usize) -> Result<usize, String> {
    let n = u32::from_le_bytes(take(buf, pos)?);
    if n > MAX_FRAME_LEN {
        return Err(format!("frame element count/length {n} over limit"));
    }
    Ok(n as usize)
}

fn decode_str(buf: &[u8], pos: &mut usize) -> Result<String, String> {
    let len = decode_len(buf, pos)?;
    let bytes = buf
        .get(*pos..*pos + len)
        .ok_or("truncated frame: short string")?;
    *pos += len;
    String::from_utf8(bytes.to_vec()).map_err(|_| "frame string is not UTF-8".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(v: &Value) -> Value {
        let mut buf = Vec::new();
        encode_value(v, &mut buf);
        decode_value(&buf).expect("round trip")
    }

    #[test]
    fn scalars_round_trip() {
        for v in [
            Value::Null,
            Value::Bool(true),
            Value::Bool(false),
            Value::Number(Number::from_u64(u64::MAX)),
            Value::Number(Number::from_i64(-42)),
            Value::Number(Number::from_f64(1.5)),
            Value::String("héllo\nworld".into()),
        ] {
            assert_eq!(round_trip(&v), v);
        }
    }

    #[test]
    fn nested_structures_round_trip() {
        let mut inner = Map::new();
        inner.insert("verb".to_string(), Value::String("solve".into()));
        inner.insert(
            "edges".to_string(),
            Value::Array(vec![
                Value::Array(vec![
                    Value::Number(Number::from_u64(0)),
                    Value::Number(Number::from_u64(1)),
                ]),
                Value::Array(vec![]),
            ]),
        );
        inner.insert("eps".to_string(), Value::Number(Number::from_f64(0.25)));
        let v = Value::Object(inner);
        assert_eq!(round_trip(&v), v);
    }

    #[test]
    fn binary_is_smaller_than_json_for_numeric_payloads() {
        // The whole point of the frame: instance submissions are mostly
        // numbers, where tagged binary beats decimal text + delimiters.
        let big = Value::Array(
            (0..512u64)
                .map(|i| Value::Number(Number::from_u64(i * 1_000_003)))
                .collect(),
        );
        let mut bin = Vec::new();
        encode_value(&big, &mut bin);
        let json = serde_json::to_string(&big).unwrap();
        assert!(bin.len() < json.len());
    }

    /// `depth` copies of the one-element container `level` around a `null`.
    fn nested(level: &[u8], depth: usize) -> Vec<u8> {
        let mut buf = level.repeat(depth);
        buf.push(0);
        buf
    }

    #[test]
    fn nesting_is_capped_at_the_recursion_limit() {
        let array = [7, 1, 0, 0, 0];
        let object = [8, 1, 0, 0, 0, 1, 0, 0, 0, b'k'];
        for level in [&array[..], &object[..]] {
            assert!(decode_value(&nested(level, MAX_DEPTH)).is_ok());
            let err = decode_value(&nested(level, MAX_DEPTH + 1)).unwrap_err();
            assert!(err.contains("recursion limit"), "{err}");
        }
        // Two million levels stop at the limit instead of overflowing the
        // stack.
        let err = decode_value(&nested(&array, 2_000_000)).unwrap_err();
        assert!(err.contains("recursion limit"), "{err}");
    }

    #[test]
    fn truncated_and_garbage_frames_are_rejected() {
        let mut buf = Vec::new();
        encode_value(&Value::String("abcdef".into()), &mut buf);
        assert!(decode_value(&buf[..buf.len() - 1]).is_err());
        assert!(decode_value(&[9, 9, 9]).is_err());
        assert!(decode_value(&[]).is_err());
        // Trailing bytes after a complete value are an error too.
        buf.push(0);
        assert!(decode_value(&buf).is_err());
    }
}
