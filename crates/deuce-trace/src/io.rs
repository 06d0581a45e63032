//! Self-describing trace containers, so generated workloads can be
//! saved and replayed across runs and tools.
//!
//! Two on-disk formats share one event model:
//!
//! - **Binary** (`DEUCETRC`): compact fixed-width records. Version 2
//!   adds a core-count field to the header so a file can be *streamed*
//!   — the timing model is sized before any event is decoded. Version 1
//!   files (no core count) still load, and still stream via
//!   [`BinaryStreamSource::open`], which pre-scans them in bounded
//!   memory to recover the core count.
//! - **JSONL**: one JSON object per line (header first), greppable and
//!   easy to produce from external tools. Always streamable — the
//!   header carries the core count.
//!
//! [`open_source`] sniffs the format and returns a boxed
//! [`WriteSource`], which is how the CLI ingests trace files without
//! materialising them.

use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;

use deuce_crypto::{LineAddr, LINE_BYTES};

use crate::source::{core_count, WriteSource};
use crate::trace::{Op, Trace, TraceEvent};

const MAGIC: &[u8; 8] = b"DEUCETRC";
/// Current binary container version. v2 = v1 plus a trailing u16
/// core-count header field.
const VERSION: u32 = 2;
/// The original header layout: magic, version, event count — no core
/// count, so v1 files cannot be streamed without a pre-scan.
const V1: u32 = 1;
/// Byte offset of the event-count field (shared by v1 and v2).
const COUNT_OFFSET: u64 = 12;
/// Maximum representable core count (`core` is a `u8`).
const MAX_CORES: u64 = 256;

/// Errors from trace (de)serialization.
#[derive(Debug)]
pub enum TraceIoError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The stream does not start with the trace magic.
    BadMagic([u8; 8]),
    /// The container version is not supported.
    UnsupportedVersion(u32),
    /// An event record had an invalid op byte.
    BadOp(u8),
    /// A record or header field was malformed (JSONL parse errors,
    /// impossible core counts); the message pinpoints the problem.
    BadRecord(String),
}

impl core::fmt::Display for TraceIoError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            TraceIoError::Io(e) => write!(f, "trace i/o failed: {e}"),
            TraceIoError::BadMagic(m) => write!(f, "not a DEUCE trace (magic {m:02x?})"),
            TraceIoError::UnsupportedVersion(v) => write!(f, "unsupported trace version {v}"),
            TraceIoError::BadOp(op) => write!(f, "invalid op byte {op:#04x}"),
            TraceIoError::BadRecord(why) => write!(f, "malformed trace record: {why}"),
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
        TraceIoError::Io(e)
    }
}

/// Parsed binary header: the container version, event count, and (v2)
/// core count.
struct Header {
    version: u32,
    count: u64,
    /// `None` for v1 files, which predate the field.
    cores: Option<usize>,
}

fn write_header<W: Write>(writer: &mut W, count: u64, cores: usize) -> Result<(), TraceIoError> {
    debug_assert!(cores >= 1 && cores as u64 <= MAX_CORES);
    writer.write_all(MAGIC)?;
    writer.write_all(&VERSION.to_le_bytes())?;
    writer.write_all(&count.to_le_bytes())?;
    writer.write_all(&(cores as u16).to_le_bytes())?;
    Ok(())
}

fn read_header<R: Read>(reader: &mut R) -> Result<Header, TraceIoError> {
    let mut magic = [0u8; 8];
    reader.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(TraceIoError::BadMagic(magic));
    }
    let mut buf4 = [0u8; 4];
    reader.read_exact(&mut buf4)?;
    let version = u32::from_le_bytes(buf4);
    if version != V1 && version != VERSION {
        return Err(TraceIoError::UnsupportedVersion(version));
    }
    let mut buf8 = [0u8; 8];
    reader.read_exact(&mut buf8)?;
    let count = u64::from_le_bytes(buf8);
    let cores = if version == VERSION {
        let mut buf2 = [0u8; 2];
        reader.read_exact(&mut buf2)?;
        let cores = u64::from(u16::from_le_bytes(buf2));
        if cores == 0 || cores > MAX_CORES {
            return Err(TraceIoError::BadRecord(format!(
                "header core count {cores} outside 1..={MAX_CORES}"
            )));
        }
        Some(cores as usize)
    } else {
        None
    };
    Ok(Header {
        version,
        count,
        cores,
    })
}

fn write_event<W: Write>(writer: &mut W, e: &TraceEvent) -> Result<(), TraceIoError> {
    writer.write_all(&[e.core, matches!(e.op, Op::Write) as u8])?;
    writer.write_all(&e.instr.to_le_bytes())?;
    writer.write_all(&e.line.value().to_le_bytes())?;
    if let Some(data) = &e.data {
        writer.write_all(data)?;
    }
    Ok(())
}

fn read_event<R: Read>(reader: &mut R) -> Result<TraceEvent, TraceIoError> {
    let mut head = [0u8; 2];
    reader.read_exact(&mut head)?;
    let core = head[0];
    let op = match head[1] {
        0 => Op::Read,
        1 => Op::Write,
        other => return Err(TraceIoError::BadOp(other)),
    };
    let mut buf8 = [0u8; 8];
    reader.read_exact(&mut buf8)?;
    let instr = u64::from_le_bytes(buf8);
    reader.read_exact(&mut buf8)?;
    let line = LineAddr::new(u64::from_le_bytes(buf8));
    let data = if op == Op::Write {
        let mut data = [0u8; LINE_BYTES];
        reader.read_exact(&mut data)?;
        Some(data)
    } else {
        None
    };
    Ok(TraceEvent {
        core,
        instr,
        op,
        line,
        data,
    })
}

/// Serializes a trace in the current binary format. A `&mut` reference
/// can be passed for any `W: Write`.
///
/// # Errors
///
/// Returns any underlying I/O error.
pub fn write_trace<W: Write>(mut writer: W, trace: &Trace) -> Result<(), TraceIoError> {
    write_header(&mut writer, trace.len() as u64, core_count(trace.events()))?;
    for e in trace.events() {
        write_event(&mut writer, e)?;
    }
    Ok(())
}

/// Deserializes a binary trace (version 1 or 2) into RAM. A `&mut`
/// reference can be passed for any `R: Read`. For bounded-memory
/// ingestion use [`BinaryStreamSource`] instead.
///
/// # Errors
///
/// Returns [`TraceIoError`] on malformed input or I/O failure.
pub fn read_trace<R: Read>(mut reader: R) -> Result<Trace, TraceIoError> {
    let header = read_header(&mut reader)?;
    let mut trace = Trace::default();
    for _ in 0..header.count {
        trace.push(read_event(&mut reader)?);
    }
    Ok(trace)
}

/// Streams a whole [`WriteSource`] into a binary trace file without
/// materialising it: the header's event count is back-patched after the
/// stream ends, so memory use is O(1) in the stream length.
///
/// Returns the number of events written.
///
/// # Errors
///
/// Propagates source errors and any underlying I/O error.
pub fn write_source_to_file<P: AsRef<Path>, S: WriteSource + ?Sized>(
    path: P,
    source: &mut S,
) -> Result<u64, TraceIoError> {
    let file = File::create(path.as_ref())?;
    let mut writer = BufWriter::new(file);
    write_header(&mut writer, 0, source.cores())?;
    let mut count = 0u64;
    while let Some(e) = source.next_event()? {
        write_event(&mut writer, &e)?;
        count += 1;
    }
    writer.flush()?;
    let mut file = writer.into_inner().map_err(|e| TraceIoError::Io(e.into_error()))?;
    file.seek(SeekFrom::Start(COUNT_OFFSET))?;
    file.write_all(&count.to_le_bytes())?;
    file.sync_all()?;
    Ok(count)
}

/// A buffered binary trace file decoded one event at a time — the
/// bounded-memory counterpart of [`read_trace`].
#[derive(Debug)]
pub struct BinaryStreamSource<R: Read> {
    reader: R,
    total: u64,
    consumed: u64,
    cores: usize,
}

impl<R: Read> BinaryStreamSource<R> {
    /// Streams a version-2 container from any reader.
    ///
    /// # Errors
    ///
    /// Returns [`TraceIoError::UnsupportedVersion`] for v1 input (a
    /// plain reader cannot be rewound after the core-count pre-scan v1
    /// needs — use [`BinaryStreamSource::open`] for v1 files), and the
    /// usual header errors otherwise.
    pub fn from_reader(mut reader: R) -> Result<Self, TraceIoError> {
        let header = read_header(&mut reader)?;
        let cores = header
            .cores
            .ok_or(TraceIoError::UnsupportedVersion(header.version))?;
        Ok(Self {
            reader,
            total: header.count,
            consumed: 0,
            cores,
        })
    }
}

impl BinaryStreamSource<BufReader<File>> {
    /// Opens a binary trace file (version 1 or 2) for streaming.
    ///
    /// v1 files lack the header core count, so they are pre-scanned —
    /// decoding and discarding each event to find `max(core) + 1` —
    /// then rewound; memory stays bounded, the file is read twice.
    ///
    /// # Errors
    ///
    /// Returns [`TraceIoError`] on malformed input or I/O failure.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self, TraceIoError> {
        Self::from_file(File::open(path.as_ref())?)
    }

    fn from_file(file: File) -> Result<Self, TraceIoError> {
        let mut reader = BufReader::new(file);
        let header = read_header(&mut reader)?;
        let cores = match header.cores {
            Some(c) => c,
            None => {
                let mut cores = 1usize;
                for _ in 0..header.count {
                    let e = read_event(&mut reader)?;
                    cores = cores.max(usize::from(e.core) + 1);
                }
                reader.seek(SeekFrom::Start(COUNT_OFFSET + 8))?;
                cores
            }
        };
        Ok(Self {
            reader,
            total: header.count,
            consumed: 0,
            cores,
        })
    }
}

impl<R: Read> WriteSource for BinaryStreamSource<R> {
    fn cores(&self) -> usize {
        self.cores
    }

    fn next_event(&mut self) -> Result<Option<TraceEvent>, TraceIoError> {
        if self.consumed == self.total {
            return Ok(None);
        }
        let e = read_event(&mut self.reader)?;
        self.consumed += 1;
        Ok(Some(e))
    }

    fn len_hint(&self) -> Option<u64> {
        Some(self.total)
    }
}

fn hex_line(data: &[u8; LINE_BYTES]) -> String {
    let mut out = String::with_capacity(LINE_BYTES * 2);
    for b in data {
        out.push(char::from_digit(u32::from(b >> 4), 16).expect("nibble"));
        out.push(char::from_digit(u32::from(b & 0xf), 16).expect("nibble"));
    }
    out
}

fn unhex_line(s: &str) -> Option<[u8; LINE_BYTES]> {
    if s.len() != LINE_BYTES * 2 || !s.is_ascii() {
        return None;
    }
    let bytes = s.as_bytes();
    let mut out = [0u8; LINE_BYTES];
    for (i, slot) in out.iter_mut().enumerate() {
        let hi = (bytes[i * 2] as char).to_digit(16)?;
        let lo = (bytes[i * 2 + 1] as char).to_digit(16)?;
        *slot = (hi * 16 + lo) as u8;
    }
    Some(out)
}

/// Extracts the raw value of `"key":` from a single-line flat JSON
/// object: string values are returned unquoted, everything else as the
/// token up to the next `,` or `}`. Only suitable for the trace JSONL
/// dialect (no escapes, no nesting).
fn json_raw_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = line[start..].trim_start();
    if let Some(stripped) = rest.strip_prefix('"') {
        let end = stripped.find('"')?;
        Some(&stripped[..end])
    } else {
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        Some(rest[..end].trim())
    }
}

fn json_u64_field(line: &str, key: &str, lineno: u64) -> Result<u64, TraceIoError> {
    json_raw_field(line, key)
        .and_then(|v| v.parse::<u64>().ok())
        .ok_or_else(|| {
            TraceIoError::BadRecord(format!("line {lineno}: missing or non-integer \"{key}\""))
        })
}

/// Writes the JSONL header line: format tag, version, core count.
fn write_jsonl_header<W: Write>(writer: &mut W, cores: usize) -> Result<(), TraceIoError> {
    writeln!(writer, "{{\"trace\":\"deuce\",\"version\":1,\"cores\":{cores}}}")?;
    Ok(())
}

fn write_event_jsonl<W: Write>(writer: &mut W, e: &TraceEvent) -> Result<(), TraceIoError> {
    match &e.data {
        Some(data) => writeln!(
            writer,
            "{{\"core\":{},\"instr\":{},\"op\":\"W\",\"line\":{},\"data\":\"{}\"}}",
            e.core,
            e.instr,
            e.line.value(),
            hex_line(data)
        )?,
        None => writeln!(
            writer,
            "{{\"core\":{},\"instr\":{},\"op\":\"R\",\"line\":{}}}",
            e.core,
            e.instr,
            e.line.value()
        )?,
    }
    Ok(())
}

/// Streams a whole [`WriteSource`] to JSONL without materialising it:
/// a header object, then one event object per line (`data` is 128 hex
/// chars for writes, absent for reads). The header needs no event
/// count, so nothing is back-patched. Returns the number of events
/// written.
///
/// # Errors
///
/// Propagates source errors and any underlying I/O error.
pub fn write_source_jsonl<W: Write, S: WriteSource + ?Sized>(
    mut writer: W,
    source: &mut S,
) -> Result<u64, TraceIoError> {
    write_jsonl_header(&mut writer, source.cores())?;
    let mut count = 0u64;
    while let Some(e) = source.next_event()? {
        write_event_jsonl(&mut writer, &e)?;
        count += 1;
    }
    writer.flush()?;
    Ok(count)
}

/// A JSONL trace decoded one line at a time — always streamable, since
/// the header line carries the core count.
#[derive(Debug)]
pub struct JsonlStreamSource<B: BufRead> {
    reader: B,
    cores: usize,
    /// Line number of the next line to read (the header was line 1).
    lineno: u64,
    /// Reused line buffer.
    line: String,
}

impl<B: BufRead> JsonlStreamSource<B> {
    /// Streams JSONL trace text from any buffered reader, validating
    /// the header line.
    ///
    /// # Errors
    ///
    /// Returns [`TraceIoError::BadRecord`] on a missing or malformed
    /// header, [`TraceIoError::UnsupportedVersion`] on a version
    /// mismatch.
    pub fn from_reader(mut reader: B) -> Result<Self, TraceIoError> {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Err(TraceIoError::BadRecord(
                "empty input (missing JSONL header line)".into(),
            ));
        }
        if json_raw_field(&line, "trace") != Some("deuce") {
            return Err(TraceIoError::BadRecord(
                "line 1: not a DEUCE JSONL trace header".into(),
            ));
        }
        let version = json_u64_field(&line, "version", 1)?;
        if version != 1 {
            return Err(TraceIoError::UnsupportedVersion(version.min(u64::from(u32::MAX)) as u32));
        }
        let cores = json_u64_field(&line, "cores", 1)?;
        if cores == 0 || cores > MAX_CORES {
            return Err(TraceIoError::BadRecord(format!(
                "line 1: core count {cores} outside 1..={MAX_CORES}"
            )));
        }
        Ok(Self {
            reader,
            cores: cores as usize,
            lineno: 2,
            line,
        })
    }
}

impl JsonlStreamSource<BufReader<File>> {
    /// Opens a JSONL trace file for streaming.
    ///
    /// # Errors
    ///
    /// Returns [`TraceIoError`] on malformed input or I/O failure.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self, TraceIoError> {
        Self::from_reader(BufReader::new(File::open(path.as_ref())?))
    }
}

impl<B: BufRead> WriteSource for JsonlStreamSource<B> {
    fn cores(&self) -> usize {
        self.cores
    }

    fn next_event(&mut self) -> Result<Option<TraceEvent>, TraceIoError> {
        loop {
            self.line.clear();
            if self.reader.read_line(&mut self.line)? == 0 {
                return Ok(None);
            }
            let lineno = self.lineno;
            self.lineno += 1;
            let text = self.line.trim();
            if text.is_empty() {
                continue; // tolerate a trailing newline
            }
            let core = json_u64_field(text, "core", lineno)?;
            if core >= MAX_CORES {
                return Err(TraceIoError::BadRecord(format!(
                    "line {lineno}: core {core} exceeds {}",
                    MAX_CORES - 1
                )));
            }
            let instr = json_u64_field(text, "instr", lineno)?;
            let line_addr = json_u64_field(text, "line", lineno)?;
            let event = match json_raw_field(text, "op") {
                Some("R") => TraceEvent::read(core as u8, instr, LineAddr::new(line_addr)),
                Some("W") => {
                    let data = json_raw_field(text, "data")
                        .and_then(unhex_line)
                        .ok_or_else(|| {
                            TraceIoError::BadRecord(format!(
                                "line {lineno}: write without a {}-hex-char \"data\" field",
                                LINE_BYTES * 2
                            ))
                        })?;
                    TraceEvent::write(core as u8, instr, LineAddr::new(line_addr), data)
                }
                _ => {
                    return Err(TraceIoError::BadRecord(format!(
                        "line {lineno}: \"op\" must be \"R\" or \"W\""
                    )))
                }
            };
            return Ok(Some(event));
        }
    }
}

/// Opens a trace file for streaming, sniffing the format: JSONL if the
/// first byte is `{`, binary otherwise.
///
/// # Errors
///
/// Returns [`TraceIoError`] on malformed input or I/O failure.
pub fn open_source<P: AsRef<Path>>(path: P) -> Result<Box<dyn WriteSource>, TraceIoError> {
    let mut file = File::open(path.as_ref())?;
    let mut first = [0u8; 1];
    let sniffed = file.read(&mut first)?;
    file.seek(SeekFrom::Start(0))?;
    if sniffed == 1 && first[0] == b'{' {
        Ok(Box::new(JsonlStreamSource::from_reader(BufReader::new(file))?))
    } else {
        Ok(Box::new(BinaryStreamSource::from_file(file)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Benchmark, TraceConfig, TraceSource};

    #[test]
    fn roundtrip() {
        let trace = TraceConfig::new(Benchmark::Omnetpp).writes(300).seed(4).generate();
        let mut buf = Vec::new();
        write_trace(&mut buf, &trace).unwrap();
        let loaded = read_trace(buf.as_slice()).unwrap();
        assert_eq!(trace, loaded);
    }

    #[test]
    fn jsonl_roundtrip() {
        let trace = TraceConfig::new(Benchmark::Milc).writes(120).cores(3).seed(8).generate();
        let mut buf = Vec::new();
        write_source_jsonl(&mut buf, &mut TraceSource::new(&trace)).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("{\"trace\":\"deuce\",\"version\":1,\"cores\":3}"));
        let mut source = JsonlStreamSource::from_reader(text.as_bytes()).unwrap();
        assert_eq!(source.cores(), 3);
        let loaded = Trace::from_source(&mut source).unwrap();
        assert_eq!(trace, loaded);
    }

    #[test]
    fn binary_stream_matches_materialised_read() {
        let trace = TraceConfig::new(Benchmark::Wrf).writes(150).cores(2).seed(5).generate();
        let mut buf = Vec::new();
        write_trace(&mut buf, &trace).unwrap();
        let mut source = BinaryStreamSource::from_reader(buf.as_slice()).unwrap();
        assert_eq!(source.cores(), 2);
        assert_eq!(source.len_hint(), Some(trace.len() as u64));
        let streamed = Trace::from_source(&mut source).unwrap();
        assert_eq!(streamed, trace);
    }

    #[test]
    fn rejects_bad_magic() {
        let err = read_trace(&b"NOTATRACE-------"[..]).unwrap_err();
        assert!(matches!(err, TraceIoError::BadMagic(_)));
        assert!(err.to_string().contains("not a DEUCE trace"));
    }

    #[test]
    fn rejects_bad_version() {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&99u32.to_le_bytes());
        buf.extend_from_slice(&0u64.to_le_bytes());
        assert!(matches!(
            read_trace(buf.as_slice()),
            Err(TraceIoError::UnsupportedVersion(99))
        ));
    }

    #[test]
    fn reads_v1_containers() {
        // A hand-built v1 stream: header without the core-count field.
        let trace = TraceConfig::new(Benchmark::Astar).writes(20).seed(2).generate();
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&V1.to_le_bytes());
        buf.extend_from_slice(&(trace.len() as u64).to_le_bytes());
        for e in trace.events() {
            write_event(&mut buf, e).unwrap();
        }
        assert_eq!(read_trace(buf.as_slice()).unwrap(), trace);
        // Plain readers cannot rewind after the v1 core pre-scan.
        assert!(matches!(
            BinaryStreamSource::from_reader(buf.as_slice()),
            Err(TraceIoError::UnsupportedVersion(1))
        ));
    }

    #[test]
    fn rejects_truncated_stream() {
        let trace = TraceConfig::new(Benchmark::Astar).writes(10).generate();
        let mut buf = Vec::new();
        write_trace(&mut buf, &trace).unwrap();
        buf.truncate(buf.len() - 5);
        assert!(matches!(read_trace(buf.as_slice()), Err(TraceIoError::Io(_))));
    }

    #[test]
    fn rejects_bad_op_byte() {
        let mut buf = Vec::new();
        write_header(&mut buf, 1, 1).unwrap();
        buf.extend_from_slice(&[0u8, 7u8]); // op byte 7 is invalid
        buf.extend_from_slice(&[0u8; 16]);
        assert!(matches!(read_trace(buf.as_slice()), Err(TraceIoError::BadOp(7))));
    }

    #[test]
    fn rejects_zero_core_header() {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.extend_from_slice(&0u64.to_le_bytes());
        buf.extend_from_slice(&0u16.to_le_bytes());
        assert!(matches!(
            read_trace(buf.as_slice()),
            Err(TraceIoError::BadRecord(_))
        ));
    }

    #[test]
    fn jsonl_rejects_corrupt_input() {
        // Missing header entirely.
        let err = JsonlStreamSource::from_reader(&b""[..]).unwrap_err();
        assert!(matches!(err, TraceIoError::BadRecord(_)));
        // Wrong format tag.
        let err = JsonlStreamSource::from_reader(&b"{\"trace\":\"other\",\"version\":1,\"cores\":1}\n"[..])
            .unwrap_err();
        assert!(err.to_string().contains("not a DEUCE JSONL trace"));
        // Future version.
        assert!(matches!(
            JsonlStreamSource::from_reader(&b"{\"trace\":\"deuce\",\"version\":9,\"cores\":1}\n"[..]),
            Err(TraceIoError::UnsupportedVersion(9))
        ));
        // Bad op on an event line.
        let text = "{\"trace\":\"deuce\",\"version\":1,\"cores\":1}\n{\"core\":0,\"instr\":1,\"op\":\"X\",\"line\":0}\n";
        let mut source = JsonlStreamSource::from_reader(text.as_bytes()).unwrap();
        let err = source.next_event().unwrap_err();
        assert!(err.to_string().contains("\"op\" must be"));
        // Write with short data.
        let text = format!(
            "{{\"trace\":\"deuce\",\"version\":1,\"cores\":1}}\n{{\"core\":0,\"instr\":1,\"op\":\"W\",\"line\":0,\"data\":\"{}\"}}\n",
            "ab".repeat(3)
        );
        let mut source = JsonlStreamSource::from_reader(text.as_bytes()).unwrap();
        assert!(source.next_event().is_err());
    }

    #[test]
    fn hex_roundtrip() {
        let mut data = [0u8; LINE_BYTES];
        for (i, b) in data.iter_mut().enumerate() {
            *b = (i * 7 + 3) as u8;
        }
        let s = hex_line(&data);
        assert_eq!(s.len(), LINE_BYTES * 2);
        assert_eq!(unhex_line(&s), Some(data));
        assert_eq!(unhex_line("zz"), None);
    }
}
