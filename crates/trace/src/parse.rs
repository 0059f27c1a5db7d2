//! Parsers and writers for the two on-disk trace formats the paper uses.
//!
//! * **SPC** (UMass trace repository, `Financial1`/`Financial2`):
//!   `ASU,LBA,Size,Opcode,Timestamp` — LBA in 512-byte sectors, size in
//!   bytes, opcode `R`/`W` (case-insensitive), timestamp in seconds.
//! * **MSR Cambridge** (`ts`/`src` and friends):
//!   `Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime` —
//!   timestamp in Windows 100 ns ticks, offset/size in bytes, type
//!   `Read`/`Write`.
//!
//! Timestamps are normalized so the first request arrives at 0 µs. Writers
//! for both formats support round-trip tests and shipping small sample
//! traces with the examples.

use std::io::{BufRead, Write};

use crate::{Dir, IoRequest, SECTOR_BYTES};

/// Errors produced while parsing a trace file.
#[derive(Debug)]
pub enum ParseError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A malformed record, with its 1-based line number and a description.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        what: String,
    },
    /// The file contains no parsable records.
    Empty,
}

impl core::fmt::Display for ParseError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "I/O error: {e}"),
            Self::Malformed { line, what } => write!(f, "line {line}: {what}"),
            Self::Empty => write!(f, "trace contains no records"),
        }
    }
}

impl std::error::Error for ParseError {}

impl From<std::io::Error> for ParseError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

fn malformed(line: usize, what: impl Into<String>) -> ParseError {
    ParseError::Malformed {
        line,
        what: what.into(),
    }
}

/// Parses an SPC-format trace (UMass Financial traces).
///
/// Blank lines are skipped; any other malformed line is an error.
///
/// # Examples
///
/// ```
/// use tpftl_trace::parse::parse_spc;
///
/// let text = "0,16,4096,W,0.0\n1,24,512,r,0.5\n";
/// let reqs = parse_spc(text.as_bytes()).unwrap();
/// assert_eq!(reqs.len(), 2);
/// assert_eq!(reqs[0].offset, 16 * 512);
/// assert_eq!(reqs[1].arrival_us, 500_000.0);
/// ```
pub fn parse_spc<R: BufRead>(reader: R) -> Result<Vec<IoRequest>, ParseError> {
    let mut out = Vec::new();
    let mut first_ts: Option<f64> = None;
    for (idx, line) in reader.lines().enumerate() {
        let lineno = idx + 1;
        let line = line?;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let mut fields = line.split(',').map(str::trim);
        let _asu: u32 = fields
            .next()
            .ok_or_else(|| malformed(lineno, "missing ASU"))?
            .parse()
            .map_err(|_| malformed(lineno, "bad ASU"))?;
        let lba: u64 = fields
            .next()
            .ok_or_else(|| malformed(lineno, "missing LBA"))?
            .parse()
            .map_err(|_| malformed(lineno, "bad LBA"))?;
        let size: u32 = fields
            .next()
            .ok_or_else(|| malformed(lineno, "missing size"))?
            .parse()
            .map_err(|_| malformed(lineno, "bad size"))?;
        let opcode = fields
            .next()
            .ok_or_else(|| malformed(lineno, "missing opcode"))?;
        let dir = match opcode {
            "R" | "r" => Dir::Read,
            "W" | "w" => Dir::Write,
            other => return Err(malformed(lineno, format!("bad opcode {other:?}"))),
        };
        let ts_s: f64 = fields
            .next()
            .ok_or_else(|| malformed(lineno, "missing timestamp"))?
            .parse()
            .map_err(|_| malformed(lineno, "bad timestamp"))?;
        let base = *first_ts.get_or_insert(ts_s);
        out.push(IoRequest::new(
            (ts_s - base) * 1e6,
            lba * SECTOR_BYTES,
            size,
            dir,
        ));
    }
    if out.is_empty() {
        return Err(ParseError::Empty);
    }
    Ok(out)
}

/// Parses an MSR Cambridge-format trace.
///
/// # Examples
///
/// ```
/// use tpftl_trace::parse::parse_msr;
///
/// let text = "128166372003061629,ts,0,Read,383496192,32768,1137\n\
///             128166372013061629,ts,0,Write,0,4096,900\n";
/// let reqs = parse_msr(text.as_bytes()).unwrap();
/// assert_eq!(reqs[0].len, 32768);
/// assert_eq!(reqs[1].arrival_us, 1_000_000.0);
/// ```
pub fn parse_msr<R: BufRead>(reader: R) -> Result<Vec<IoRequest>, ParseError> {
    let mut out = Vec::new();
    let mut first_ts: Option<u64> = None;
    for (idx, line) in reader.lines().enumerate() {
        let lineno = idx + 1;
        let line = line?;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let mut fields = line.split(',').map(str::trim);
        let ts_ticks: u64 = fields
            .next()
            .ok_or_else(|| malformed(lineno, "missing timestamp"))?
            .parse()
            .map_err(|_| malformed(lineno, "bad timestamp"))?;
        let _host = fields
            .next()
            .ok_or_else(|| malformed(lineno, "missing hostname"))?;
        let _disk = fields
            .next()
            .ok_or_else(|| malformed(lineno, "missing disk"))?;
        let dir = match fields
            .next()
            .ok_or_else(|| malformed(lineno, "missing type"))?
        {
            "Read" | "read" | "R" => Dir::Read,
            "Write" | "write" | "W" => Dir::Write,
            other => return Err(malformed(lineno, format!("bad type {other:?}"))),
        };
        let offset: u64 = fields
            .next()
            .ok_or_else(|| malformed(lineno, "missing offset"))?
            .parse()
            .map_err(|_| malformed(lineno, "bad offset"))?;
        let size: u32 = fields
            .next()
            .ok_or_else(|| malformed(lineno, "missing size"))?
            .parse()
            .map_err(|_| malformed(lineno, "bad size"))?;
        let base = *first_ts.get_or_insert(ts_ticks);
        // 100 ns ticks -> µs. Out-of-order records (rare but present in
        // real captures) yield negative relative arrivals rather than a
        // u64 underflow.
        out.push(IoRequest::new(
            (ts_ticks as f64 - base as f64) / 10.0,
            offset,
            size,
            dir,
        ));
    }
    if out.is_empty() {
        return Err(ParseError::Empty);
    }
    Ok(out)
}

/// Guesses the trace format from its first non-empty line and parses it.
///
/// Field 4 decides: MSR records spell the type out (`Read`/`Write`), SPC
/// records carry a one-letter opcode there. The field count does not tell
/// them apart — MSR has 7, and the SPC format allows optional columns after
/// its 5.
pub fn parse_auto(content: &str) -> Result<Vec<IoRequest>, ParseError> {
    let first = content
        .lines()
        .map(str::trim)
        .find(|l| !l.is_empty())
        .ok_or(ParseError::Empty)?;
    let is_msr = first.split(',').nth(3).is_some_and(|t| {
        let t = t.trim();
        t.eq_ignore_ascii_case("read") || t.eq_ignore_ascii_case("write")
    });
    if is_msr {
        parse_msr(content.as_bytes())
    } else {
        parse_spc(content.as_bytes())
    }
}

/// Writes `requests` in SPC format (inverse of [`parse_spc`]).
///
/// Offsets are rounded down to sector boundaries, as SPC LBAs are
/// sector-granular.
pub fn write_spc<W: Write>(mut w: W, requests: &[IoRequest]) -> std::io::Result<()> {
    for r in requests {
        writeln!(
            w,
            "0,{},{},{},{:.6}",
            r.offset / SECTOR_BYTES,
            r.len,
            if r.is_write() { 'W' } else { 'R' },
            r.arrival_us / 1e6,
        )?;
    }
    Ok(())
}

/// Writes `requests` in MSR Cambridge format (inverse of [`parse_msr`]).
pub fn write_msr<W: Write>(mut w: W, requests: &[IoRequest]) -> std::io::Result<()> {
    for r in requests {
        writeln!(
            w,
            "{},synth,0,{},{},{},0",
            (r.arrival_us * 10.0).round() as u64,
            if r.is_write() { "Write" } else { "Read" },
            r.offset,
            r.len,
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spc_roundtrip() {
        let text = "0,100,4096,W,1.0\n0,108,8192,R,1.5\n0,50,512,w,2.0\n";
        let reqs = parse_spc(text.as_bytes()).unwrap();
        assert_eq!(reqs.len(), 3);
        assert_eq!(reqs[0].offset, 100 * 512);
        assert_eq!(reqs[0].dir, Dir::Write);
        assert_eq!(reqs[1].dir, Dir::Read);
        assert_eq!(reqs[1].arrival_us, 500_000.0);
        let mut buf = Vec::new();
        write_spc(&mut buf, &reqs).unwrap();
        let again = parse_spc(&buf[..]).unwrap();
        assert_eq!(reqs, again);
    }

    #[test]
    fn msr_roundtrip() {
        let text = "1000,ts,0,Read,8192,4096,77\n2000,ts,0,Write,0,512,88\n";
        let reqs = parse_msr(text.as_bytes()).unwrap();
        assert_eq!(reqs[0].offset, 8192);
        assert_eq!(reqs[1].arrival_us, 100.0);
        let mut buf = Vec::new();
        write_msr(&mut buf, &reqs).unwrap();
        assert_eq!(parse_msr(&buf[..]).unwrap(), reqs);
    }

    #[test]
    fn autodetect() {
        let spc = "0,100,4096,W,1.0\n";
        let msr = "1000,ts,0,Read,8192,4096,77\n";
        assert_eq!(parse_auto(spc).unwrap()[0].dir, Dir::Write);
        assert_eq!(parse_auto(msr).unwrap()[0].dir, Dir::Read);
    }

    /// The SPC format allows optional trailing columns, so a 7-column line
    /// is not necessarily MSR.
    #[test]
    fn autodetect_goes_by_field_four_not_field_count() {
        let spc7 = "0,100,4096,W,1.0,0,0\n1,24,512,r,1.5,0,0\n";
        let reqs = parse_auto(spc7).unwrap();
        assert_eq!(reqs, parse_spc(spc7.as_bytes()).unwrap());
        assert_eq!(reqs[0].offset, 100 * 512);
        assert_eq!(reqs[1].dir, Dir::Read);
        let msr7 = "1000,ts,0,Write,8192,4096,77\n";
        let reqs = parse_auto(msr7).unwrap();
        assert_eq!(reqs, parse_msr(msr7.as_bytes()).unwrap());
        assert_eq!(reqs[0].offset, 8192);
    }

    #[test]
    fn malformed_lines_reported_with_position() {
        let text = "0,100,4096,W,1.0\n0,abc,4096,W,1.0\n";
        match parse_spc(text.as_bytes()) {
            Err(ParseError::Malformed { line, what }) => {
                assert_eq!(line, 2);
                assert!(what.contains("LBA"));
            }
            other => panic!("expected malformed error, got {other:?}"),
        }
        let text2 = "0,100,4096,X,1.0\n";
        assert!(matches!(
            parse_spc(text2.as_bytes()),
            Err(ParseError::Malformed { line: 1, .. })
        ));
    }

    #[test]
    fn empty_and_blank_files() {
        assert!(matches!(parse_spc(&b""[..]), Err(ParseError::Empty)));
        assert!(matches!(parse_spc(&b"\n\n"[..]), Err(ParseError::Empty)));
        assert!(matches!(parse_auto("  \n"), Err(ParseError::Empty)));
    }

    #[test]
    fn timestamps_normalized_to_zero() {
        let text = "0,1,512,R,100.0\n0,2,512,R,100.5\n";
        let reqs = parse_spc(text.as_bytes()).unwrap();
        assert_eq!(reqs[0].arrival_us, 0.0);
        assert_eq!(reqs[1].arrival_us, 500_000.0);
    }
}
