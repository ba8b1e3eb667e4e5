//! Shared hostile-input screening primitives.
//!
//! Two subsystems read JSON that an adversary (or a crashed fleet job)
//! may have written: `dlperf-serve`'s wire protocol and the
//! [`crate::ingest`] trace-corpus scanner. Both need the same defenses —
//! a string/escape-aware depth tracker that rejects `[[[[…` before any
//! parse, NUL detection, and capped line reads
//! that never buffer an unbounded stream. This module is the single
//! implementation both delegate to; `serve::api` wraps it with its wire
//! constants unchanged, and the ingest scanner builds its chunked state
//! machine on [`JsonCursor`].

/// Limits applied by [`prescreen_line`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScreenLimits {
    /// Longest line accepted, in bytes.
    pub max_line_bytes: usize,
    /// Deepest container nesting accepted.
    pub max_json_depth: usize,
}

/// What one byte did to the lexical state, as reported by
/// [`JsonCursor::step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lex {
    /// The byte opened a container (`{` or `[`) outside a string.
    Open,
    /// The byte closed a container (`}` or `]`) outside a string.
    Close,
    /// The byte is part of a string literal (including both quotes).
    Str,
    /// Any other byte outside a string.
    Plain,
}

/// A streaming JSON lexer tracking container depth across string literals
/// and escapes. It never recurses and holds constant state, so it is safe
/// to run over arbitrarily deep or long hostile input byte by byte.
#[derive(Debug, Clone, Default)]
pub struct JsonCursor {
    depth: usize,
    in_str: bool,
    escaped: bool,
}

impl JsonCursor {
    /// A cursor at depth zero, outside any string.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current container depth.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Whether the cursor is inside a string literal.
    pub fn in_string(&self) -> bool {
        self.in_str
    }

    /// Advances the lexical state by one byte.
    pub fn step(&mut self, b: u8) -> Lex {
        if self.in_str {
            if self.escaped {
                self.escaped = false;
            } else if b == b'\\' {
                self.escaped = true;
            } else if b == b'"' {
                self.in_str = false;
            }
            return Lex::Str;
        }
        match b {
            b'"' => {
                self.in_str = true;
                Lex::Str
            }
            b'[' | b'{' => {
                self.depth += 1;
                Lex::Open
            }
            b']' | b'}' => {
                self.depth = self.depth.saturating_sub(1);
                Lex::Close
            }
            _ => Lex::Plain,
        }
    }

    /// Steps over the leading bytes of `bytes` that a caller scanning one
    /// element of an array at depth `floor` has no need to see, and
    /// returns how many it consumed: the state afterwards is that of
    /// [`step`](Self::step) over those bytes. Strings are consumed whole,
    /// escapes included. It stops before the first byte that
    /// [`step`](Self::step) must report:
    ///
    /// * a NUL outside a string;
    /// * an opener that would take the depth past `max_depth`;
    /// * a closer that would take the depth to `floor` or lower (the end
    ///   of a container element, or of the array itself);
    /// * a `,` at depth `floor` (the end of a scalar element).
    ///
    /// A caller with a byte cap passes only the bytes it may still take.
    pub fn skim(&mut self, bytes: &[u8], floor: usize, max_depth: usize) -> usize {
        let mut i = 0;
        while i < bytes.len() {
            if self.in_str {
                if self.escaped {
                    self.escaped = false;
                    i += 1;
                    continue;
                }
                match bytes[i..].iter().position(|&b| b == b'"' || b == b'\\') {
                    Some(n) => {
                        i += n;
                        if bytes[i] == b'"' {
                            self.in_str = false;
                        } else {
                            self.escaped = true;
                        }
                        i += 1;
                    }
                    None => i = bytes.len(),
                }
                continue;
            }
            match bytes[i] {
                b'"' => self.in_str = true,
                b'[' | b'{' => {
                    if self.depth >= max_depth {
                        break;
                    }
                    self.depth += 1;
                }
                b']' | b'}' => {
                    if self.depth <= floor + 1 {
                        break;
                    }
                    self.depth -= 1;
                }
                b',' if self.depth == floor => break,
                0 => break,
                _ => {}
            }
            i += 1;
        }
        i
    }
}

/// Rejects hostile input lines before a recursive JSON parser runs:
/// over-long lines, container nesting past the depth cap, and interior
/// NUL bytes outside string literals.
///
/// # Errors
/// A static reason string suitable for a 400 response or a quarantine
/// entry.
pub fn prescreen_line(line: &str, limits: &ScreenLimits) -> Result<(), &'static str> {
    if line.len() > limits.max_line_bytes {
        return Err("request line exceeds size cap");
    }
    let mut cursor = JsonCursor::new();
    for b in line.bytes() {
        match cursor.step(b) {
            Lex::Open => {
                if cursor.depth() > limits.max_json_depth {
                    return Err("request nesting exceeds depth cap");
                }
            }
            Lex::Plain => {
                if b == 0 {
                    return Err("request contains NUL bytes");
                }
            }
            Lex::Close | Lex::Str => {}
        }
    }
    Ok(())
}

/// Outcome of one [`read_bounded_line`] call.
#[derive(Debug)]
pub enum LineRead {
    /// The stream ended cleanly.
    Eof,
    /// One complete line, trailing `\n`/`\r\n` stripped.
    Line(String),
    /// The line exceeded the byte cap. Its remainder has already been
    /// drained through the next newline (or EOF) in bounded memory, so
    /// the caller can reject it and keep reading the stream.
    Oversized,
}

/// Reads one newline-delimited record while never buffering more than
/// `max_line_bytes + 1` bytes, whatever the peer (or file) contains. This
/// is the transport-side half of the hostile-input screen:
/// [`prescreen_line`] checks a line it is handed, but only a capped read
/// keeps a newline-less multi-gigabyte stream from exhausting memory
/// before that check runs.
///
/// # Errors
/// Propagates I/O errors; non-UTF-8 lines surface as `InvalidData`,
/// matching what `BufRead::lines` would have produced.
pub fn read_bounded_line<R: std::io::BufRead>(
    reader: &mut R,
    max_line_bytes: usize,
) -> std::io::Result<LineRead> {
    use std::io::{BufRead as _, Read};
    let mut buf = Vec::new();
    let n = (&mut *reader)
        .take(max_line_bytes as u64 + 1)
        .read_until(b'\n', &mut buf)?;
    if n == 0 {
        return Ok(LineRead::Eof);
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
    } else if buf.len() > max_line_bytes {
        // The cap fired before a newline: skip to the end of this line
        // chunk-by-chunk so the next read starts on a fresh line.
        loop {
            let chunk = reader.fill_buf()?;
            if chunk.is_empty() {
                break;
            }
            match chunk.iter().position(|&b| b == b'\n') {
                Some(pos) => {
                    reader.consume(pos + 1);
                    break;
                }
                None => {
                    let len = chunk.len();
                    reader.consume(len);
                }
            }
        }
        return Ok(LineRead::Oversized);
    }
    match String::from_utf8(buf) {
        Ok(line) => Ok(LineRead::Line(line)),
        Err(_) => Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "stream did not contain valid UTF-8",
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LIMITS: ScreenLimits = ScreenLimits {
        max_line_bytes: 1024,
        max_json_depth: 8,
    };

    #[test]
    fn cursor_tracks_depth_across_strings_and_escapes() {
        let mut c = JsonCursor::new();
        for b in br#"{"a": "[{\"}", "b": [1, {}]}"#.iter().copied() {
            c.step(b);
        }
        assert_eq!(c.depth(), 0);
        assert!(!c.in_string());

        let mut c = JsonCursor::new();
        for b in br#"[["deep"#.iter().copied() {
            c.step(b);
        }
        assert_eq!(c.depth(), 2);
        assert!(c.in_string());
    }

    #[test]
    fn skim_steps_like_step_and_stops_where_step_must_report() {
        let (floor, max_depth) = (2, 5);
        let input =
            b"[[{\"a\":\"x\\\"]},\\\\\",\"b\":[{}],\"c\":[[[[1]]]],\"n\":\"\0\"},\0 7 ,{\"e\":1}]]";
        for start in 0..input.len() {
            let mut stepped = JsonCursor::new();
            for &b in &input[..start] {
                stepped.step(b);
            }
            let mut skimmed = stepped.clone();
            let n = skimmed.skim(&input[start..], floor, max_depth);
            for &b in &input[start..start + n] {
                stepped.step(b);
            }
            assert_eq!(
                format!("{skimmed:?}"),
                format!("{stepped:?}"),
                "from {start}"
            );
            let Some(&b) = input.get(start + n) else {
                continue;
            };
            let depth = stepped.depth();
            assert!(!stepped.in_string(), "from {start}");
            assert!(
                b == 0
                    || (matches!(b, b'[' | b'{') && depth >= max_depth)
                    || (matches!(b, b']' | b'}') && depth <= floor + 1)
                    || (b == b',' && depth == floor),
                "from {start}: stopped at {:?} at depth {depth}",
                b as char
            );
        }
    }

    #[test]
    fn prescreen_rejects_oversized_deep_and_nul() {
        assert!(prescreen_line(&"x".repeat(1025), &LIMITS).is_err());
        assert!(prescreen_line(&"[".repeat(9), &LIMITS).is_err());
        assert!(prescreen_line("{\"k\"\0}", &LIMITS).is_err());
        // Brackets and NULs inside strings are the parser's problem, not
        // a stack or framing hazard.
        assert!(prescreen_line(&format!("{{\"s\": \"{}\"}}", "[".repeat(64)), &LIMITS).is_ok());
        assert!(prescreen_line("{\"ok\": 1}", &LIMITS).is_ok());
    }

    #[test]
    fn bounded_read_caps_and_resumes() {
        let mut data = vec![b'x'; 5000];
        data.push(b'\n');
        data.extend_from_slice(b"next\n");
        let mut reader = std::io::BufReader::with_capacity(256, &data[..]);
        assert!(matches!(
            read_bounded_line(&mut reader, 1024).unwrap(),
            LineRead::Oversized
        ));
        match read_bounded_line(&mut reader, 1024).unwrap() {
            LineRead::Line(l) => assert_eq!(l, "next"),
            other => panic!("expected the next line, got {other:?}"),
        }
        assert!(matches!(
            read_bounded_line(&mut reader, 1024).unwrap(),
            LineRead::Eof
        ));
    }
}
