//! Class, field and method definitions, and the loaded [`Program`].

use crate::bytecode::DexInsn;
use crate::error::DvmError;
use crate::framework::Intrinsic;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

/// Index of a class in the [`Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClassId(pub u32);

/// Index of a method in the [`Program`]'s flat method table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MethodId(pub u32);

/// A field position within its class (instance or static).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FieldId {
    /// The owning class.
    pub class: ClassId,
    /// Index into the class's field list.
    pub index: u16,
    /// Whether this is a static field.
    pub is_static: bool,
}

/// A field definition.
#[derive(Debug, Clone)]
pub struct FieldDef {
    /// Field name.
    pub name: String,
    /// Whether the field holds an object reference.
    pub is_reference: bool,
}

/// How a method executes.
#[derive(Debug, Clone)]
pub enum MethodKind {
    /// Interpreted Dalvik bytecode.
    Bytecode(Vec<DexInsn>),
    /// A JNI native method: `entry` is the first-instruction address of
    /// the registered native function in guest memory (the paper's
    /// `method_address` / `insnAddr`).
    Native {
        /// Guest address of the native implementation.
        entry: u32,
    },
    /// A modeled Android-framework method (sources, sinks, helpers).
    Intrinsic(Intrinsic),
}

/// A method definition.
#[derive(Debug, Clone)]
pub struct MethodDef {
    /// Method name.
    pub name: String,
    /// Dalvik shorty: return type then parameter types, e.g. `"IILL"`
    /// (the paper logs shorties like `IILLLLLLLLII`), shared with every
    /// `SourcePolicy` made for a call of the method.
    pub shorty: Arc<str>,
    /// Number of registers in the method frame (`registers_size`).
    pub registers_size: u16,
    /// Number of argument registers (`ins_size`). For non-static
    /// methods the first "in" is `this`.
    pub ins_size: u16,
    /// Static method? (Affects the JNI access flag and `this`.)
    pub is_static: bool,
    /// The body.
    pub kind: MethodKind,
    /// Instruction index of a catch-all handler: when an exception
    /// unwinds into this method it resumes there (the thrown object is
    /// fetched with `move-exception`). `None` = exceptions propagate.
    pub catch_all: Option<u32>,
}

impl MethodDef {
    /// A method with the given body; `registers_size`/`ins_size` default
    /// to the shorty's parameter count and can be adjusted with
    /// [`with_registers`](MethodDef::with_registers).
    pub fn new(
        name: impl Into<String>,
        shorty: impl Into<Arc<str>>,
        kind: MethodKind,
    ) -> MethodDef {
        let shorty = shorty.into();
        let ins = shorty.len().saturating_sub(1) as u16;
        MethodDef {
            name: name.into(),
            shorty,
            registers_size: ins,
            ins_size: ins,
            is_static: true,
            kind,
            catch_all: None,
        }
    }

    /// Sets `registers_size` (must be ≥ `ins_size`).
    #[must_use]
    pub fn with_registers(mut self, registers_size: u16) -> MethodDef {
        assert!(registers_size >= self.ins_size);
        self.registers_size = registers_size;
        self
    }

    /// Marks the method non-static: the first in-register becomes
    /// `this`, growing `ins_size` (call before
    /// [`with_registers`](MethodDef::with_registers)).
    #[must_use]
    pub fn virtual_method(mut self) -> MethodDef {
        self.is_static = false;
        self.ins_size += 1;
        self.registers_size = self.registers_size.max(self.ins_size);
        self
    }

    /// Installs a catch-all handler at instruction index `target`.
    #[must_use]
    pub fn with_catch_all(mut self, target: u32) -> MethodDef {
        self.catch_all = Some(target);
        self
    }
    /// The Dalvik access-flag word (only `ACC_STATIC` is modeled, plus
    /// `ACC_PUBLIC` so flags look like the paper's `0x1`/`0x9`).
    pub fn access_flags(&self) -> u32 {
        const ACC_PUBLIC: u32 = 0x1;
        const ACC_STATIC: u32 = 0x8;
        if self.is_static {
            ACC_PUBLIC | ACC_STATIC
        } else {
            ACC_PUBLIC
        }
    }

    /// Whether the method returns `void` (shorty begins with `V`).
    pub fn returns_void(&self) -> bool {
        self.shorty.starts_with('V')
    }

    /// Whether the method returns an object reference.
    pub fn returns_reference(&self) -> bool {
        self.shorty.starts_with('L')
    }

    /// The kinds of the arguments native code receives for this method.
    pub fn param_kinds(&self) -> ParamKinds<'_> {
        ParamKinds::new(&self.shorty, self.is_static)
    }
}

/// The argument kinds of a method as native code receives them: `this`
/// (an object) first for a non-static method, then the shorty's
/// parameter types. A view borrowed from the shorty, so a Java/native
/// crossing reads the kinds without copying them.
#[derive(Debug, Clone, Copy)]
pub struct ParamKinds<'a> {
    this: bool,
    params: &'a [u8],
}

impl<'a> ParamKinds<'a> {
    /// The argument kinds of a method with `shorty` (return type first;
    /// shorty type letters are ASCII).
    pub fn new(shorty: &'a str, is_static: bool) -> ParamKinds<'a> {
        ParamKinds {
            this: !is_static,
            params: shorty.as_bytes().get(1..).unwrap_or_default(),
        }
    }

    /// The shorty character of argument `i` (`'L'` for an object), or
    /// `None` past the last argument.
    #[inline]
    pub fn kind(&self, i: usize) -> Option<char> {
        match i.checked_sub(usize::from(self.this)) {
            None => Some('L'),
            Some(j) => self.params.get(j).map(|&b| char::from(b)),
        }
    }

    /// Whether argument `i` is an object reference.
    #[inline]
    pub fn is_ref(&self, i: usize) -> bool {
        self.kind(i) == Some('L')
    }
}

/// A class definition.
#[derive(Debug, Clone, Default)]
pub struct ClassDef {
    /// JVM-style internal name, e.g. `Lcom/tencent/tccsync/LoginUtil;`.
    pub name: String,
    /// Instance fields.
    pub instance_fields: Vec<FieldDef>,
    /// Static fields.
    pub static_fields: Vec<FieldDef>,
    /// Method ids owned by this class (into the program method table).
    pub methods: Vec<MethodId>,
}

/// A class table, a flat method table and a name index: either the
/// modeled framework, built once per process and shared by every
/// [`Program`] (see [`install_framework`](crate::framework::install_framework)),
/// or one app's own classes and methods.
#[derive(Debug, Default, Clone)]
pub(crate) struct Tables {
    classes: Vec<ClassDef>,
    /// Each method with its class and its `Lcls;.name`, built once when
    /// the method is added and shared by every event that names it.
    methods: Vec<(ClassId, MethodDef, Arc<str>)>,
    class_by_name: HashMap<String, ClassId>,
}

/// The table that holds a method: the process-wide framework, or a
/// refcount on the app's own tables.
#[derive(Debug)]
enum TablesRef {
    Shared(&'static Tables),
    Own(Rc<Tables>),
}

/// A method definition held apart from its [`Program`]: the table that
/// holds it and its index there. The interpreter reads a method's code
/// through one while it mutates the VM, with no copy of the code.
#[derive(Debug)]
pub(crate) struct MethodRef {
    tables: TablesRef,
    index: usize,
}

impl std::ops::Deref for MethodRef {
    type Target = MethodDef;

    #[inline]
    fn deref(&self) -> &MethodDef {
        let tables = match &self.tables {
            TablesRef::Shared(t) => t,
            TablesRef::Own(t) => &**t,
        };
        &tables.methods[self.index].1
    }
}

/// A loaded application: classes, a flat method table, static-field
/// storage, and interned strings.
///
/// Ids are global: the shared framework's classes and methods come
/// first, the app's own ones continue from the framework's counts, and
/// every lookup picks the table by index. The framework tables are
/// `&'static`, built once per process, like Zygote's preloaded classes.
/// The app's own class and method tables and its string pool —
/// immutable once the app is assembled — sit behind `Rc` so that
/// cloning a `Program` (snapshot fan-out forks one per scenario) is a
/// refcount bump plus the one mutable part: static-field storage
/// (written at runtime by `SPut`). The rare post-clone structural
/// mutation (e.g. a test interning a new string constant) privatizes
/// via `Rc::make_mut`.
#[derive(Debug, Default, Clone)]
pub struct Program {
    framework: Option<&'static Tables>,
    own: Rc<Tables>,
    /// Static field values, per class, paired with their taint labels
    /// (interleaved storage per TaintDroid §II-B).
    pub statics: Vec<Vec<(u32, crate::taint::Taint)>>,
    /// Interned string constants referenced by `ConstString`, each
    /// shared with every string object a `const-string` makes of it.
    pub strings: Rc<Vec<Rc<str>>>,
}

/// Element `i` of the concatenation `shared ++ own`.
fn split_get<'a, T>(shared: &'a [T], own: &'a [T], i: usize) -> Option<&'a T> {
    match i.checked_sub(shared.len()) {
        None => shared.get(i),
        Some(j) => own.get(j),
    }
}

impl Program {
    /// An empty program.
    pub fn new() -> Program {
        Program::default()
    }

    fn shared_classes(&self) -> &'static [ClassDef] {
        self.framework.map_or(&[], |f| &f.classes)
    }

    fn shared_methods(&self) -> &'static [(ClassId, MethodDef, Arc<str>)] {
        self.framework.map_or(&[], |f| &f.methods)
    }

    /// Points an empty program at the shared framework `tables`.
    ///
    /// # Panics
    ///
    /// Panics if the program already holds a class.
    pub(crate) fn share(&mut self, tables: &'static Tables) {
        assert!(
            self.class_count() == 0,
            "install_framework needs an empty program ({} classes present)",
            self.class_count()
        );
        self.framework = Some(tables);
        self.statics = vec![Vec::new(); tables.classes.len()];
    }

    /// The program's own tables, for building the shared framework.
    pub(crate) fn into_tables(self) -> Tables {
        Rc::unwrap_or_clone(self.own)
    }

    /// Registers a class, returning its id.
    ///
    /// # Panics
    ///
    /// Panics if a class with the same name already exists.
    pub fn add_class(&mut self, def: ClassDef) -> ClassId {
        assert!(
            self.class_id(&def.name).is_none(),
            "duplicate class {}",
            def.name
        );
        let id = ClassId(self.class_count() as u32);
        let own = Rc::make_mut(&mut self.own);
        own.class_by_name.insert(def.name.clone(), id);
        self.statics.push(vec![
            (0, crate::taint::Taint::CLEAR);
            def.static_fields.len()
        ]);
        own.classes.push(def);
        id
    }

    /// Adds a method to `class`, returning its id.
    ///
    /// # Panics
    ///
    /// Panics if `class` is a shared framework class (those tables are
    /// immutable) or does not exist.
    pub fn add_method(&mut self, class: ClassId, def: MethodDef) -> MethodId {
        let shared = self.shared_classes();
        let index = (class.0 as usize)
            .checked_sub(shared.len())
            .unwrap_or_else(|| {
                panic!(
                    "cannot add {} to framework class {}: the shared framework is immutable",
                    def.name, shared[class.0 as usize].name
                )
            });
        let id = MethodId((self.shared_methods().len() + self.own.methods.len()) as u32);
        let own = Rc::make_mut(&mut self.own);
        let qualified = format!("{}.{}", own.classes[index].name, def.name).into();
        own.classes[index].methods.push(id);
        own.methods.push((class, def, qualified));
        id
    }

    /// Interns a string constant, returning its index.
    pub fn intern(&mut self, s: impl AsRef<str>) -> u32 {
        let s = s.as_ref();
        if let Some(i) = self.strings.iter().position(|x| **x == *s) {
            return i as u32;
        }
        Rc::make_mut(&mut self.strings).push(s.into());
        (self.strings.len() - 1) as u32
    }

    /// Looks up a class by internal name.
    ///
    /// # Errors
    ///
    /// [`DvmError::NoSuchClass`] if absent.
    pub fn find_class(&self, name: &str) -> Result<ClassId, DvmError> {
        self.class_id(name)
            .ok_or_else(|| DvmError::NoSuchClass(name.to_string()))
    }

    fn class_id(&self, name: &str) -> Option<ClassId> {
        let own = self.own.class_by_name.get(name);
        own.or_else(|| self.framework?.class_by_name.get(name))
            .copied()
    }

    /// The class definition for `id`, checked.
    ///
    /// # Errors
    ///
    /// [`DvmError::BadClassId`] if no class has that id (a forged
    /// bytecode operand or `jclass`).
    pub fn get_class(&self, id: ClassId) -> Result<&ClassDef, DvmError> {
        let Some(def) = split_get(self.shared_classes(), &self.own.classes, id.0 as usize) else {
            return Err(DvmError::BadClassId(id.0));
        };
        Ok(def)
    }

    /// The class definition for `id`.
    ///
    /// # Panics
    ///
    /// Panics if no class has that id; see [`get_class`](Program::get_class).
    pub fn class(&self, id: ClassId) -> &ClassDef {
        self.get_class(id).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Number of classes.
    pub fn class_count(&self) -> usize {
        self.shared_classes().len() + self.own.classes.len()
    }

    /// All method ids, in definition order.
    pub fn method_ids(&self) -> impl Iterator<Item = MethodId> {
        (0..(self.shared_methods().len() + self.own.methods.len()) as u32).map(MethodId)
    }

    fn method_entry(&self, id: MethodId) -> Result<&(ClassId, MethodDef, Arc<str>), DvmError> {
        let Some(entry) = split_get(self.shared_methods(), &self.own.methods, id.0 as usize) else {
            return Err(DvmError::BadMethodId(id.0));
        };
        Ok(entry)
    }

    /// The method definition for `id`, held apart from the program.
    ///
    /// # Panics
    ///
    /// Panics if no method has that id.
    pub(crate) fn method_ref(&self, id: MethodId) -> MethodRef {
        let i = id.0 as usize;
        let shared = self.shared_methods().len();
        let (tables, index) = match (i.checked_sub(shared), self.framework) {
            (None, Some(f)) => (TablesRef::Shared(f), i),
            (Some(j), _) if j < self.own.methods.len() => (TablesRef::Own(Rc::clone(&self.own)), j),
            _ => panic!("{}", DvmError::BadMethodId(id.0)),
        };
        MethodRef { tables, index }
    }

    /// The method definition for `id`, checked.
    ///
    /// # Errors
    ///
    /// [`DvmError::BadMethodId`] if no method has that id (a forged
    /// bytecode operand or `jmethodID`).
    pub fn get_method(&self, id: MethodId) -> Result<&MethodDef, DvmError> {
        self.method_entry(id).map(|(_, m, _)| m)
    }

    /// The method definition for `id`.
    ///
    /// # Panics
    ///
    /// Panics if no method has that id; see [`get_method`](Program::get_method).
    pub fn method(&self, id: MethodId) -> &MethodDef {
        self.get_method(id).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The class that owns method `id`.
    ///
    /// # Panics
    ///
    /// Panics if no method has that id.
    pub fn method_class(&self, id: MethodId) -> ClassId {
        self.method_entry(id).unwrap_or_else(|e| panic!("{e}")).0
    }

    /// `Lcls;.name` of method `id`, built when it was added.
    ///
    /// # Panics
    ///
    /// Panics if no method has that id.
    pub fn qualified_name(&self, id: MethodId) -> &Arc<str> {
        &self.method_entry(id).unwrap_or_else(|e| panic!("{e}")).2
    }

    /// Looks up a method by class and name.
    ///
    /// # Errors
    ///
    /// [`DvmError::BadClassId`] if `class` does not exist,
    /// [`DvmError::NoSuchMethod`] if the method is absent.
    pub fn find_method(&self, class: ClassId, name: &str) -> Result<MethodId, DvmError> {
        let def = self.get_class(class)?;
        def.methods
            .iter()
            .copied()
            .find(|m| self.method(*m).name == name)
            .ok_or_else(|| DvmError::NoSuchMethod {
                class: def.name.clone(),
                method: name.to_string(),
            })
    }

    /// Looks up a method as `"Lcls;.name"` in one call.
    ///
    /// # Errors
    ///
    /// [`DvmError::NoSuchClass`] / [`DvmError::NoSuchMethod`].
    pub fn find_method_by_name(&self, class: &str, name: &str) -> Result<MethodId, DvmError> {
        self.find_method(self.find_class(class)?, name)
    }

    /// Looks up a static (`is_static`) or instance field by name among
    /// that kind's fields only.
    ///
    /// # Errors
    ///
    /// [`DvmError::BadClassId`] if `class` does not exist,
    /// [`DvmError::NoSuchField`] if no field of that kind has the name.
    pub fn find_field(
        &self,
        class: ClassId,
        name: &str,
        is_static: bool,
    ) -> Result<FieldId, DvmError> {
        let def = self.get_class(class)?;
        let fields = if is_static { &def.static_fields } else { &def.instance_fields };
        match fields.iter().position(|f| f.name == name) {
            Some(i) => Ok(FieldId {
                class,
                index: i as u16,
                is_static,
            }),
            None => Err(DvmError::NoSuchField {
                class: def.name.clone(),
                field: name.to_string(),
            }),
        }
    }

    /// Updates a native method's entry address (used by app builders
    /// that register methods before the native library is assembled).
    ///
    /// # Panics
    ///
    /// Panics if `id` is not one of the app's own native methods.
    pub fn set_native_entry(&mut self, id: MethodId, entry: u32) {
        let own = (id.0 as usize).checked_sub(self.shared_methods().len());
        let def = own.and_then(|i| Rc::make_mut(&mut self.own).methods.get_mut(i));
        match def.map(|(_, m, _)| &mut m.kind) {
            Some(MethodKind::Native { entry: e }) => *e = entry,
            _ => panic!("method {} is not native", id.0),
        }
    }

    /// The native methods registered in the program, with entry points.
    pub fn native_methods(&self) -> Vec<(MethodId, u32)> {
        self.shared_methods()
            .iter()
            .chain(self.own.methods.iter())
            .enumerate()
            .filter_map(|(i, (_, m, _))| match m.kind {
                MethodKind::Native { entry } => Some((MethodId(i as u32), entry)),
                _ => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::taint::Taint;

    fn sample_program() -> (Program, ClassId) {
        let mut p = Program::new();
        let c = p.add_class(ClassDef {
            name: "Lcom/example/Main;".into(),
            instance_fields: vec![FieldDef {
                name: "secret".into(),
                is_reference: true,
            }],
            static_fields: vec![FieldDef {
                name: "counter".into(),
                is_reference: false,
            }],
            methods: vec![],
        });
        p.add_method(
            c,
            MethodDef {
                name: "run".into(),
                shorty: "V".into(),
                registers_size: 4,
                ins_size: 1,
                is_static: false,
                kind: MethodKind::Bytecode(vec![]),
                catch_all: None,
            },
        );
        p.add_method(
            c,
            MethodDef {
                name: "nativeWork".into(),
                shorty: "IL".into(),
                registers_size: 2,
                ins_size: 2,
                is_static: true,
                kind: MethodKind::Native { entry: 0x4a2c_7d88 },
                catch_all: None,
            },
        );
        (p, c)
    }

    #[test]
    fn class_and_method_lookup() {
        let (p, c) = sample_program();
        assert_eq!(p.find_class("Lcom/example/Main;").unwrap(), c);
        assert!(p.find_class("Lmissing;").is_err());
        let m = p.find_method(c, "run").unwrap();
        assert_eq!(p.method(m).name, "run");
        assert_eq!(p.method_class(m), c);
        assert!(p.find_method(c, "nope").is_err());
        assert_eq!(p.class_count(), 1);
    }

    #[test]
    fn field_lookup_distinguishes_static() {
        let (p, c) = sample_program();
        let f = p.find_field(c, "secret", false).unwrap();
        assert!(!f.is_static);
        let s = p.find_field(c, "counter", true).unwrap();
        assert!(s.is_static);
        assert!(p.find_field(c, "ghost", false).is_err());
        // Each kind's lookup sees only its own fields.
        assert!(p.find_field(c, "secret", true).is_err());
        assert!(p.find_field(c, "counter", false).is_err());
    }

    #[test]
    fn statics_initialized_clear() {
        let (p, c) = sample_program();
        assert_eq!(p.statics[c.0 as usize], vec![(0, Taint::CLEAR)]);
    }

    #[test]
    fn native_methods_enumerated() {
        let (p, _) = sample_program();
        let natives = p.native_methods();
        assert_eq!(natives.len(), 1);
        assert_eq!(natives[0].1, 0x4a2c_7d88);
        assert_eq!(p.method(natives[0].0).name, "nativeWork");
    }

    #[test]
    fn access_flags_match_paper() {
        let (p, c) = sample_program();
        let run = p.find_method(c, "run").unwrap();
        // Fig. 9 shows AccessFlag 0x1 for the virtual nativeCallback.
        assert_eq!(p.method(run).access_flags(), 0x1);
        let native = p.find_method(c, "nativeWork").unwrap();
        assert_eq!(p.method(native).access_flags(), 0x9);
    }

    #[test]
    fn intern_deduplicates() {
        let mut p = Program::new();
        let a = p.intern("hello");
        let b = p.intern("world");
        let c = p.intern("hello");
        assert_eq!(a, c);
        assert_ne!(a, b);
        assert_eq!(p.strings.len(), 2);
    }

    #[test]
    fn shorty_helpers() {
        let (p, c) = sample_program();
        let run = p.find_method(c, "run").unwrap();
        assert!(p.method(run).returns_void());
        assert!(!p.method(run).returns_reference());
    }
}
