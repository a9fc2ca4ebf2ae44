//! Heap object representations with TaintDroid's taint-storage rules.
//!
//! "For ArrayObject and StringObject that is actually an array of chars,
//! TaintDroid sets a taint label in the array object. For class static
//! field and class instance field, the taint labels are stored
//! interleaved with variables in Class's or Object's instance data
//! area." (§II-B)

use crate::class::ClassId;
use crate::taint::Taint;
use std::rc::Rc;

/// Element kind of an [`HeapObject::Array`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArrayKind {
    /// `int[]`, `float[]`, etc. — any 32-bit primitive.
    Primitive,
    /// `byte[]` / `char[]` stored one element per slot.
    Byte,
    /// Object reference elements.
    Object,
}

/// One object in the managed heap.
#[derive(Debug, Clone)]
pub enum HeapObject {
    /// A `java.lang.String`: a char array with a single taint label.
    String {
        /// UTF-8 contents (the reproduction stores text, not UTF-16),
        /// shared with the string pool for a `const-string`.
        value: Rc<str>,
        /// The object-level taint label.
        taint: Taint,
    },
    /// An array with one label covering all elements (TaintDroid's
    /// array policy).
    Array {
        /// Element kind.
        kind: ArrayKind,
        /// Elements, one 32-bit slot each.
        data: Vec<u32>,
        /// The single array-level taint label.
        taint: Taint,
    },
    /// A class instance: field values interleaved with per-field labels.
    Instance {
        /// The instance's class.
        class: ClassId,
        /// Instance data area: `fields[i]` paired with `taints[i]`,
        /// modeling the interleaved layout.
        fields: Vec<u32>,
        /// Per-field taint labels.
        taints: Vec<Taint>,
    },
    /// A `java.lang.Throwable` carrying a message string reference.
    Exception {
        /// Exception class name (e.g. `Ljava/lang/RuntimeException;`).
        class_name: String,
        /// Reference (object id + 1) of the message string, 0 if none.
        message: u32,
    },
}

impl HeapObject {
    /// A short human-readable kind name (for logs and errors).
    pub fn kind_name(&self) -> &'static str {
        match self {
            HeapObject::String { .. } => "StringObject",
            HeapObject::Array { .. } => "ArrayObject",
            HeapObject::Instance { .. } => "Object",
            HeapObject::Exception { .. } => "Exception",
        }
    }

    /// The object-level taint: the label of a string/array, or the
    /// union of field labels for an instance.
    pub fn overall_taint(&self) -> Taint {
        match self {
            HeapObject::String { taint, .. } | HeapObject::Array { taint, .. } => *taint,
            HeapObject::Instance { taints, .. } => taints
                .iter()
                .fold(Taint::CLEAR, |acc, t| acc.union(*t)),
            HeapObject::Exception { .. } => Taint::CLEAR,
        }
    }

    /// Adds taint to the object-level label (string/array) or to every
    /// field of an instance.
    pub fn add_taint(&mut self, extra: Taint) {
        match self {
            HeapObject::String { taint, .. } | HeapObject::Array { taint, .. } => {
                *taint |= extra;
            }
            HeapObject::Instance { taints, .. } => {
                for t in taints {
                    *t |= extra;
                }
            }
            HeapObject::Exception { .. } => {}
        }
    }

    /// Approximate heap footprint in bytes (for allocator accounting).
    pub fn size_bytes(&self) -> usize {
        match self {
            HeapObject::String { value, .. } => 16 + value.len(),
            HeapObject::Array { data, .. } => 16 + 4 * data.len(),
            HeapObject::Instance { fields, .. } => 16 + 8 * fields.len(),
            HeapObject::Exception { class_name, .. } => 16 + class_name.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn string_taint_is_object_level() {
        let mut s = HeapObject::String {
            value: "imei-356938035643809".into(),
            taint: Taint::IMEI,
        };
        assert_eq!(s.overall_taint(), Taint::IMEI);
        s.add_taint(Taint::SMS);
        assert_eq!(s.overall_taint(), Taint::IMEI | Taint::SMS);
        assert_eq!(s.kind_name(), "StringObject");
    }

    #[test]
    fn array_has_single_label() {
        // TaintDroid keeps ONE label for the whole array.
        let mut a = HeapObject::Array {
            kind: ArrayKind::Primitive,
            data: vec![1, 2, 3],
            taint: Taint::CLEAR,
        };
        a.add_taint(Taint::CONTACTS);
        assert_eq!(a.overall_taint(), Taint::CONTACTS);
    }

    #[test]
    fn instance_fields_have_interleaved_labels() {
        let mut obj = HeapObject::Instance {
            class: ClassId(0),
            fields: vec![10, 20],
            taints: vec![Taint::CLEAR, Taint::PHONE_NUMBER],
        };
        assert_eq!(obj.overall_taint(), Taint::PHONE_NUMBER);
        obj.add_taint(Taint::SMS);
        match &obj {
            HeapObject::Instance { taints, .. } => {
                assert!(taints[0].contains(Taint::SMS));
                assert!(taints[1].contains(Taint::PHONE_NUMBER));
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn sizes_scale_with_content() {
        let small = HeapObject::Array {
            kind: ArrayKind::Byte,
            data: vec![0; 4],
            taint: Taint::CLEAR,
        };
        let big = HeapObject::Array {
            kind: ArrayKind::Byte,
            data: vec![0; 400],
            taint: Taint::CLEAR,
        };
        assert!(big.size_bytes() > small.size_bytes());
    }
}
