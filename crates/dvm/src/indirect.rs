//! The indirect-reference table handed to native code.
//!
//! "Since version 4.0, Android uses indirect references in native code
//! rather than direct pointers to reference objects. … To track
//! information flows through JNI, NDroid has to handle both indirect
//! references and direct pointers" (§II-A). The reference values here
//! follow Android's layout: a serial/index payload tagged with the
//! reference kind in the low two bits (so values look like the
//! `0xa8900025` in the paper's Fig. 9 log).

use crate::error::DvmError;
use crate::heap::ObjectId;

/// The kind of an indirect reference (low two bits of the value).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u32)]
pub enum IndirectRefKind {
    /// JNI local reference.
    Local = 0x1,
    /// JNI global reference.
    Global = 0x2,
}

/// An opaque 32-bit indirect reference as seen by native code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IndirectRef(pub u32);

impl IndirectRef {
    /// The null reference.
    pub const NULL: IndirectRef = IndirectRef(0);

    /// The kind tag, if the value is well-formed.
    pub fn kind(self) -> Option<IndirectRefKind> {
        match self.0 & 0x3 {
            0x1 => Some(IndirectRefKind::Local),
            0x2 => Some(IndirectRefKind::Global),
            _ => None,
        }
    }

    /// Whether this is the null reference.
    pub fn is_null(self) -> bool {
        self.0 == 0
    }
}

impl std::fmt::Display for IndirectRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:#010x}", self.0)
    }
}

#[derive(Debug, Clone)]
struct Entry {
    obj: ObjectId,
    serial: u32,
}

/// The per-VM indirect reference table (locals and globals).
#[derive(Debug, Default, Clone)]
pub struct IndirectRefTable {
    locals: Vec<Option<Entry>>,
    globals: Vec<Option<Entry>>,
    next_serial: u32,
}

impl IndirectRefTable {
    /// An empty table.
    pub fn new() -> IndirectRefTable {
        IndirectRefTable {
            locals: Vec::new(),
            globals: Vec::new(),
            // Non-zero starting serial so reference values look like
            // Android's (high bits populated).
            next_serial: 0xA89,
        }
    }

    fn table(&mut self, kind: IndirectRefKind) -> &mut Vec<Option<Entry>> {
        match kind {
            IndirectRefKind::Local => &mut self.locals,
            IndirectRefKind::Global => &mut self.globals,
        }
    }

    /// Registers `obj` and returns a fresh indirect reference.
    pub fn add(&mut self, kind: IndirectRefKind, obj: ObjectId) -> IndirectRef {
        let serial = self.next_serial;
        self.next_serial = self.next_serial.wrapping_add(0x11).max(1);
        let table = self.table(kind);
        let index = table
            .iter()
            .position(|e| e.is_none())
            .unwrap_or_else(|| {
                table.push(None);
                table.len() - 1
            });
        table[index] = Some(Entry { obj, serial });
        IndirectRef(Self::pack(kind, index as u32, serial))
    }

    fn pack(kind: IndirectRefKind, index: u32, serial: u32) -> u32 {
        ((serial & 0xFFF) << 20) | ((index & 0x3FFFF) << 2) | kind as u32
    }

    /// Resolves an indirect reference to the object id — the
    /// reproduction's `dvmDecodeIndirectRef`.
    ///
    /// # Errors
    ///
    /// [`DvmError::BadIndirectRef`] for null, malformed, stale, or
    /// deleted references.
    pub fn decode(&self, r: IndirectRef) -> Result<ObjectId, DvmError> {
        let Some(kind) = r.kind() else {
            return Err(DvmError::BadIndirectRef(r.0));
        };
        let index = ((r.0 >> 2) & 0x3FFFF) as usize;
        let serial = r.0 >> 20;
        let table = match kind {
            IndirectRefKind::Local => &self.locals,
            IndirectRefKind::Global => &self.globals,
        };
        match table.get(index).and_then(|e| e.as_ref()) {
            Some(entry) if entry.serial & 0xFFF == serial => Ok(entry.obj),
            _ => Err(DvmError::BadIndirectRef(r.0)),
        }
    }

    /// Removes a reference (JNI `DeleteLocalRef`/`DeleteGlobalRef`).
    ///
    /// # Errors
    ///
    /// [`DvmError::BadIndirectRef`] if the reference does not resolve.
    pub fn delete(&mut self, r: IndirectRef) -> Result<(), DvmError> {
        let obj = self.decode(r)?;
        let kind = r.kind().expect("validated by decode");
        let index = ((r.0 >> 2) & 0x3FFFF) as usize;
        let table = self.table(kind);
        debug_assert_eq!(table[index].as_ref().map(|e| e.obj), Some(obj));
        table[index] = None;
        Ok(())
    }

    /// Every object currently referenced (GC roots from native code).
    pub fn all_objects(&self) -> Vec<ObjectId> {
        self.locals
            .iter()
            .chain(self.globals.iter())
            .flatten()
            .map(|e| e.obj)
            .collect()
    }

    /// Number of live references.
    pub fn len(&self) -> usize {
        self.locals.iter().flatten().count() + self.globals.iter().flatten().count()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_decode_roundtrip() {
        let mut t = IndirectRefTable::new();
        let r = t.add(IndirectRefKind::Local, ObjectId(7));
        assert_eq!(r.kind(), Some(IndirectRefKind::Local));
        assert_eq!(t.decode(r).unwrap(), ObjectId(7));
        assert!(!r.is_null());
    }

    #[test]
    fn global_and_local_are_distinct() {
        let mut t = IndirectRefTable::new();
        let l = t.add(IndirectRefKind::Local, ObjectId(1));
        let g = t.add(IndirectRefKind::Global, ObjectId(2));
        assert_ne!(l, g);
        assert_eq!(t.decode(l).unwrap(), ObjectId(1));
        assert_eq!(t.decode(g).unwrap(), ObjectId(2));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn delete_invalidates() {
        let mut t = IndirectRefTable::new();
        let r = t.add(IndirectRefKind::Local, ObjectId(5));
        t.delete(r).unwrap();
        assert!(matches!(t.decode(r), Err(DvmError::BadIndirectRef(_))));
        assert!(t.is_empty());
    }

    #[test]
    fn stale_serial_rejected() {
        let mut t = IndirectRefTable::new();
        let r1 = t.add(IndirectRefKind::Local, ObjectId(5));
        t.delete(r1).unwrap();
        // Slot reused with a new serial: old reference must not resolve.
        let r2 = t.add(IndirectRefKind::Local, ObjectId(9));
        assert_ne!(r1, r2);
        assert!(t.decode(r1).is_err());
        assert_eq!(t.decode(r2).unwrap(), ObjectId(9));
    }

    #[test]
    fn null_and_malformed_rejected() {
        let t = IndirectRefTable::new();
        assert!(t.decode(IndirectRef::NULL).is_err());
        assert!(t.decode(IndirectRef(0x1234_5670)).is_err()); // kind bits 00
        assert!(IndirectRef::NULL.is_null());
    }

    #[test]
    fn roots_enumerated() {
        let mut t = IndirectRefTable::new();
        t.add(IndirectRefKind::Local, ObjectId(1));
        t.add(IndirectRefKind::Global, ObjectId(2));
        let mut roots = t.all_objects();
        roots.sort();
        assert_eq!(roots, vec![ObjectId(1), ObjectId(2)]);
    }

    #[test]
    fn reference_values_look_like_androids() {
        let mut t = IndirectRefTable::new();
        let r = t.add(IndirectRefKind::Local, ObjectId(0));
        // Kind tag in the low bits, serial in the high bits.
        assert_eq!(r.0 & 0x3, 0x1);
        assert!(r.0 >> 20 != 0, "serial occupies high bits: {r}");
    }
}
