//! Parser for the JSONL event files [`crate::export`] writes.
//!
//! This is deliberately *not* a general JSON parser: telemetry events
//! are flat objects whose values are strings or numbers, so that is
//! exactly what is accepted. Unknown event types pass through — a
//! newer writer's files still load in an older reader.

use std::fmt;

/// A value in a telemetry event.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A JSON number.
    Num(f64),
    /// A JSON string.
    Str(String),
}

/// One parsed event: the fields of one JSONL line, in file order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Event {
    fields: Vec<(String, Value)>,
}

impl Event {
    /// Looks a field up by key.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// A string field, if present and a string.
    #[must_use]
    pub fn str(&self, key: &str) -> Option<&str> {
        match self.get(key) {
            Some(Value::Str(s)) => Some(s),
            _ => None,
        }
    }

    /// A numeric field, if present and a number.
    #[must_use]
    pub fn num(&self, key: &str) -> Option<f64> {
        match self.get(key) {
            Some(Value::Num(n)) => Some(*n),
            _ => None,
        }
    }

    /// A numeric field truncated to `u64` (0 floor).
    #[must_use]
    pub fn u64(&self, key: &str) -> Option<u64> {
        self.num(key).map(|n| if n <= 0.0 { 0 } else { n as u64 })
    }

    /// The event's `type` field (empty when missing).
    #[must_use]
    pub fn kind(&self) -> &str {
        self.str("type").unwrap_or("")
    }
}

/// A parse failure, with the 1-based line it occurred on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "telemetry line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn skip_ws(&mut self) {
        while self.bytes.get(self.pos).is_some_and(u8::is_ascii_whitespace) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?}", byte as char))
        }
    }

    fn string(&mut self, text: &'a str) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek().ok_or("unterminated string")? {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    let escape = self.peek().ok_or("dangling escape")?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = text
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape {hex:?}"))?;
                            out.push(
                                char::from_u32(code).ok_or("non-scalar \\u escape")?,
                            );
                            self.pos += 4;
                        }
                        other => return Err(format!("unknown escape \\{}", other as char)),
                    }
                }
                _ => {
                    // Advance one whole UTF-8 character.
                    let rest = &text[self.pos..];
                    let c = rest.chars().next().ok_or("invalid UTF-8")?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self, text: &str) -> Result<f64, String> {
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        text[start..self.pos]
            .parse()
            .map_err(|_| format!("bad number {:?}", &text[start..self.pos]))
    }
}

/// Parses one JSONL line into an [`Event`].
fn parse_line(text: &str) -> Result<Event, String> {
    let mut cursor = Cursor { bytes: text.as_bytes(), pos: 0 };
    cursor.skip_ws();
    cursor.expect(b'{')?;
    let mut event = Event::default();
    cursor.skip_ws();
    if cursor.peek() == Some(b'}') {
        return Ok(event);
    }
    loop {
        cursor.skip_ws();
        let key = cursor.string(text)?;
        cursor.skip_ws();
        cursor.expect(b':')?;
        cursor.skip_ws();
        let value = match cursor.peek().ok_or("truncated object")? {
            b'"' => Value::Str(cursor.string(text)?),
            _ => Value::Num(cursor.number(text)?),
        };
        event.fields.push((key, value));
        cursor.skip_ws();
        match cursor.peek().ok_or("truncated object")? {
            b',' => cursor.pos += 1,
            b'}' => {
                cursor.pos += 1;
                cursor.skip_ws();
                if cursor.peek().is_some() {
                    return Err("trailing garbage after object".into());
                }
                return Ok(event);
            }
            other => return Err(format!("expected ',' or '}}', found {:?}", other as char)),
        }
    }
}

/// Parses a whole JSONL document (blank lines are skipped).
///
/// # Errors
///
/// Returns the first malformed line.
pub fn parse_jsonl(text: &str) -> Result<Vec<Event>, ParseError> {
    let mut events = Vec::new();
    for (index, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        events.push(
            parse_line(line).map_err(|message| ParseError { line: index + 1, message })?,
        );
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_flat_objects() {
        let events = parse_jsonl(
            "{\"type\":\"counter\",\"name\":\"writes\",\"value\":42}\n\n\
             {\"type\":\"sample\",\"sim_ns\":12.5,\"hit_ratio\":0.75}\n",
        )
        .unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind(), "counter");
        assert_eq!(events[0].str("name"), Some("writes"));
        assert_eq!(events[0].u64("value"), Some(42));
        assert_eq!(events[1].num("sim_ns"), Some(12.5));
        assert_eq!(events[1].num("hit_ratio"), Some(0.75));
        assert_eq!(events[1].num("missing"), None);
    }

    #[test]
    fn handles_escapes_and_negatives() {
        let events =
            parse_jsonl("{\"run\":\"a\\\"b\\\\c\\nd\\u0041\",\"value\":-2.5e1}").unwrap();
        assert_eq!(events[0].str("run"), Some("a\"b\\c\ndA"));
        assert_eq!(events[0].num("value"), Some(-25.0));
    }

    #[test]
    fn export_output_round_trips() {
        use crate::export::write_jsonl;
        use crate::recorder::{Counter, Recorder, TelemetryConfig, TelemetryRecorder, WriteEvent};
        let mut recorder = TelemetryRecorder::new(TelemetryConfig {
            sample_every: 1,
            energy_pj_per_flip: 13.5,
        });
        recorder.add(Counter::Writes, 7);
        recorder.write_observed(&WriteEvent {
            write_index: 1,
            sim_ns: 300.0,
            flips: 61,
            slots: 2,
            cache_hits: 1,
            cache_misses: 1,
            ..WriteEvent::default()
        });
        let mut buf = Vec::new();
        write_jsonl(&mut buf, "läbel \"x\"", &recorder).unwrap();
        let events = parse_jsonl(&String::from_utf8(buf).unwrap()).unwrap();
        assert!(events.iter().all(|e| e.str("run") == Some("läbel \"x\"")));
        let writes = events
            .iter()
            .find(|e| e.kind() == "counter" && e.str("name") == Some("writes"))
            .unwrap();
        assert_eq!(writes.u64("value"), Some(7));
        let sample = events.iter().find(|e| e.kind() == "sample").unwrap();
        assert_eq!(sample.num("sim_ns"), Some(300.0));
    }

    #[test]
    fn malformed_lines_are_located() {
        let err = parse_jsonl("{\"ok\":1}\n{broken").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("line 2"));
    }

    #[test]
    fn truncated_lines_fail_loudly() {
        // Cut mid-object, mid-string, and mid-value: all must error,
        // never silently yield a partial event.
        let err = parse_jsonl("{\"type\":\"counter\",\"value\":1").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.message.contains("truncated"), "got {:?}", err.message);

        let err = parse_jsonl("{\"type\":\"coun").unwrap_err();
        assert!(err.message.contains("unterminated"), "got {:?}", err.message);

        let err = parse_jsonl("{\"type\":").unwrap_err();
        assert!(err.message.contains("truncated"), "got {:?}", err.message);
    }

    #[test]
    fn bad_escapes_fail_loudly() {
        let err = parse_jsonl("{\"run\":\"a\\x\"}").unwrap_err();
        assert!(err.message.contains("unknown escape"), "got {:?}", err.message);

        let err = parse_jsonl("{\"run\":\"a\\u00\"}").unwrap_err();
        assert!(err.message.contains("\\u escape"), "got {:?}", err.message);

        let err = parse_jsonl("{\"run\":\"a\\").unwrap_err();
        assert!(err.message.contains("dangling escape"), "got {:?}", err.message);
    }

    #[test]
    fn non_numeric_values_fail_loudly() {
        let err = parse_jsonl("{\"value\":true}").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.message.contains("bad number"), "got {:?}", err.message);

        let err = parse_jsonl("{\"value\":[1,2]}").unwrap_err();
        assert!(err.message.contains("bad number"), "got {:?}", err.message);

        let err = parse_jsonl("{\"value\":1..2}").unwrap_err();
        assert!(err.message.contains("bad number"), "got {:?}", err.message);
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let err = parse_jsonl("{\"ok\":1} extra").unwrap_err();
        assert!(err.message.contains("trailing garbage"), "got {:?}", err.message);
    }
}
