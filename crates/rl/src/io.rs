//! Saving and loading trained Q-tables.
//!
//! A minimal, versioned binary container so trained policies can be
//! deployed or re-evaluated later ("the policy is then ready for testing
//! and deployment", §2.1): a 16-byte header (magic, version, shape)
//! followed by the row-major little-endian values.

use crate::fixed::FixedScale;
use crate::qtable::{FixedQTable, QTable};
use std::fs::File;
use std::io::{self, Read, Write};
use std::path::Path;

const MAGIC: u32 = 0x5154_424C; // "QTBL"
const VERSION_F32: u32 = 1;
const VERSION_I32: u32 = 2;

fn write_header<W: Write>(w: &mut W, version: u32, ns: usize, na: usize) -> io::Result<()> {
    w.write_all(&MAGIC.to_le_bytes())?;
    w.write_all(&version.to_le_bytes())?;
    w.write_all(&(ns as u32).to_le_bytes())?;
    w.write_all(&(na as u32).to_le_bytes())?;
    Ok(())
}

fn read_header<R: Read>(r: &mut R) -> io::Result<(u32, usize, usize)> {
    let mut buf = [0u8; 16];
    r.read_exact(&mut buf)?;
    let word = |i: usize| u32::from_le_bytes([buf[4 * i], buf[4 * i + 1], buf[4 * i + 2], buf[4 * i + 3]]);
    if word(0) != MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "not a Q-table file (bad magic)",
        ));
    }
    Ok((word(1), word(2) as usize, word(3) as usize))
}

/// Writes an FP32 Q-table to `writer`.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn save_qtable<W: Write>(q: &QTable, writer: &mut W) -> io::Result<()> {
    write_header(writer, VERSION_F32, q.num_states(), q.num_actions())?;
    writer.write_all(&q.to_bytes())
}

/// Reads an FP32 Q-table from `reader`.
///
/// # Errors
///
/// Fails on I/O errors, a bad magic word, or a version mismatch.
pub fn load_qtable<R: Read>(reader: &mut R) -> io::Result<QTable> {
    let (version, ns, na) = read_header(reader)?;
    if version != VERSION_F32 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("expected FP32 table (v{VERSION_F32}), found v{version}"),
        ));
    }
    let mut bytes = vec![0u8; ns * na * 4];
    reader.read_exact(&mut bytes)?;
    Ok(QTable::from_bytes(ns, na, &bytes))
}

/// Writes a fixed-point Q-table (its scale factor is stored after the
/// header).
///
/// # Errors
///
/// Propagates I/O errors.
pub fn save_fixed_qtable<W: Write>(q: &FixedQTable, writer: &mut W) -> io::Result<()> {
    write_header(writer, VERSION_I32, q.num_states(), q.num_actions())?;
    writer.write_all(&q.scale().factor().to_le_bytes())?;
    writer.write_all(&q.to_bytes())
}

/// Reads a fixed-point Q-table.
///
/// # Errors
///
/// Fails on I/O errors, a bad magic word, or a version mismatch.
pub fn load_fixed_qtable<R: Read>(reader: &mut R) -> io::Result<FixedQTable> {
    let (version, ns, na) = read_header(reader)?;
    if version != VERSION_I32 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("expected INT32 table (v{VERSION_I32}), found v{version}"),
        ));
    }
    let mut word = [0u8; 4];
    reader.read_exact(&mut word)?;
    let scale = FixedScale::new(i32::from_le_bytes(word));
    let mut bytes = vec![0u8; ns * na * 4];
    reader.read_exact(&mut bytes)?;
    Ok(FixedQTable::from_bytes(ns, na, scale, &bytes))
}

/// Saves an FP32 Q-table to a file path.
///
/// # Errors
///
/// Propagates file-creation and write errors.
pub fn save_qtable_file<P: AsRef<Path>>(q: &QTable, path: P) -> io::Result<()> {
    save_qtable(q, &mut File::create(path)?)
}

/// Loads an FP32 Q-table from a file path.
///
/// # Errors
///
/// Propagates file-open and format errors.
pub fn load_qtable_file<P: AsRef<Path>>(path: P) -> io::Result<QTable> {
    load_qtable(&mut File::open(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use swiftrl_env::{Action, State};

    fn sample() -> QTable {
        let mut q = QTable::zeros(16, 4);
        q.set(State(3), Action(1), -2.5);
        q.set(State(15), Action(3), 0.7312);
        q
    }

    #[test]
    fn fp32_round_trip_in_memory() {
        let q = sample();
        let mut buf = Vec::new();
        save_qtable(&q, &mut buf).unwrap();
        let q2 = load_qtable(&mut buf.as_slice()).unwrap();
        assert_eq!(q, q2);
    }

    #[test]
    fn fixed_round_trip_in_memory() {
        let q = sample().to_fixed(FixedScale::paper());
        let mut buf = Vec::new();
        save_fixed_qtable(&q, &mut buf).unwrap();
        let q2 = load_fixed_qtable(&mut buf.as_slice()).unwrap();
        assert_eq!(q, q2);
    }

    #[test]
    #[allow(clippy::disallowed_methods, reason = "a scratch file for the round trip")]
    fn file_round_trip() {
        let q = sample();
        let path = std::env::temp_dir().join("swiftrl_qtable_test.qtbl");
        save_qtable_file(&q, &path).unwrap();
        let q2 = load_qtable_file(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(q, q2);
    }

    #[test]
    fn bad_magic_rejected() {
        let buf = vec![0u8; 32];
        assert!(load_qtable(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn version_mismatch_rejected() {
        let q = sample();
        let mut buf = Vec::new();
        save_qtable(&q, &mut buf).unwrap();
        assert!(load_fixed_qtable(&mut buf.as_slice()).is_err());
        let f = q.to_fixed(FixedScale::paper());
        let mut buf = Vec::new();
        save_fixed_qtable(&f, &mut buf).unwrap();
        assert!(load_qtable(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn truncated_file_rejected() {
        let q = sample();
        let mut buf = Vec::new();
        save_qtable(&q, &mut buf).unwrap();
        buf.truncate(buf.len() - 7);
        assert!(load_qtable(&mut buf.as_slice()).is_err());
    }
}
