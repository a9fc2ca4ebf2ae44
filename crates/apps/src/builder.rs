//! The app builder: packages Dalvik bytecode, assembled ARM native
//! code and a static data section into a runnable [`App`].

use ndroid_arm::asm::{Assembler, CodeBlock, Label};
use ndroid_arm::ArmError;
use ndroid_core::{Mode, NDroidSystem, SystemConfig};
use ndroid_dvm::framework::install_framework;
use ndroid_dvm::{ClassDef, ClassId, DvmError, MethodDef, MethodId, MethodKind, Program, Taint};
use ndroid_emu::layout::NATIVE_CODE_BASE;

/// Where an app's static data (strings, global buffers) lives — inside
/// the third-party-library region, after the text.
pub const DATA_BASE: u32 = NATIVE_CODE_BASE + 0x0008_0000;

/// An app's name paired with the function that builds it.
pub type NamedApp = (&'static str, fn() -> App);

/// A packaged application.
pub struct App {
    /// App name (market-style).
    pub name: String,
    /// What the app does / which case it exercises.
    pub description: String,
    /// The Dalvik program (framework pre-installed).
    pub program: Program,
    /// The assembled native library, if any.
    pub native: Option<CodeBlock>,
    /// Static data section: (address, bytes).
    pub data: Vec<(u32, Vec<u8>)>,
    /// Library name as it appears in the process memory map.
    pub lib_name: String,
    /// Entry point: (class internal name, method name).
    pub entry: (String, String),
    /// For Type-III (pure native) apps: the guest entry address that
    /// replaces the Java entry point.
    pub native_entry: Option<u32>,
}

impl std::fmt::Debug for App {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("App")
            .field("name", &self.name)
            .field("entry", &self.entry)
            .finish()
    }
}

impl App {
    /// Boots a system in `mode` with the default configuration,
    /// consuming the app (app constructors are cheap pure functions —
    /// build one per run: the host table and the framework classes are
    /// built once per process and only borrowed, so a build allocates
    /// just the app's own classes, code and data).
    pub fn launch(self, mode: Mode) -> NDroidSystem {
        self.launch_with(SystemConfig::new(mode))
    }

    /// Boots a system from a full [`SystemConfig`], consuming the app.
    pub fn launch_with(self, config: SystemConfig) -> NDroidSystem {
        let mut sys = NDroidSystem::from_config(self.program, config);
        if let Some(code) = &self.native {
            sys.load_native(code, &self.lib_name);
        }
        for (addr, bytes) in &self.data {
            sys.mem.write_bytes(*addr, bytes);
        }
        sys
    }

    /// Boots and runs the app's entry point, returning the system for
    /// inspection.
    ///
    /// # Errors
    ///
    /// Propagates interpreter/guest failures.
    pub fn run(self, mode: Mode) -> Result<NDroidSystem, DvmError> {
        self.run_with(SystemConfig::new(mode))
    }

    /// Boots from `config` and runs the app's entry point, returning
    /// the system for inspection (call
    /// [`NDroidSystem::report`] on it for the run's [`ndroid_core::RunReport`]).
    ///
    /// # Errors
    ///
    /// Propagates interpreter/guest failures.
    pub fn run_with(self, config: SystemConfig) -> Result<NDroidSystem, DvmError> {
        let entry = self.entry.clone();
        let native_entry = self.native_entry;
        let mut sys = self.launch_with(config);
        match native_entry {
            Some(addr) => {
                sys.run_native(addr, &[])
                    .map_err(|e| DvmError::NativeFailure(e.to_string()))?;
            }
            None => {
                sys.run_java(&entry.0, &entry.1, &[])?;
            }
        }
        Ok(sys)
    }

    /// Like [`App::run`], but applies `configure` to the booted system
    /// before the entry point runs — for knobs not yet expressible as
    /// [`SystemConfig`] fields. Prefer [`App::run_with`].
    ///
    /// # Errors
    ///
    /// Propagates interpreter/guest failures.
    pub fn run_configured(
        self,
        mode: Mode,
        configure: impl FnOnce(&mut NDroidSystem),
    ) -> Result<NDroidSystem, DvmError> {
        let entry = self.entry.clone();
        let native_entry = self.native_entry;
        let mut sys = self.launch(mode);
        configure(&mut sys);
        match native_entry {
            // Type-III (pure native) app: the entry is ARM code.
            Some(addr) => {
                sys.run_native(addr, &[])
                    .map_err(|e| DvmError::NativeFailure(e.to_string()))?;
            }
            None => {
                sys.run_java(&entry.0, &entry.1, &[])?;
            }
        }
        Ok(sys)
    }
}

/// Builder for [`App`]s: a Dalvik program (framework installed), an
/// ARM assembler positioned at the native-code base, and a data
/// cursor.
pub struct AppBuilder {
    name: String,
    description: String,
    /// The program being built.
    pub program: Program,
    /// The native-library assembler.
    pub asm: Assembler,
    data: Vec<(u32, Vec<u8>)>,
    data_cursor: u32,
    native_fixups: Vec<(MethodId, Label)>,
}

impl std::fmt::Debug for AppBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AppBuilder").field("name", &self.name).finish()
    }
}

impl AppBuilder {
    /// Starts building an app on the modeled framework. The framework
    /// classes are shared with every other program in the process (see
    /// [`install_framework`]), so this allocates only the app's own
    /// tables, which its classes and methods then fill.
    pub fn new(name: &str, description: &str) -> AppBuilder {
        let mut program = Program::new();
        install_framework(&mut program);
        AppBuilder {
            name: name.to_string(),
            description: description.to_string(),
            program,
            asm: Assembler::new(NATIVE_CODE_BASE),
            data: Vec::new(),
            data_cursor: DATA_BASE,
            native_fixups: Vec::new(),
        }
    }

    /// Adds a class with no fields.
    pub fn class(&mut self, name: &str) -> ClassId {
        self.program.add_class(ClassDef {
            name: name.to_string(),
            ..ClassDef::default()
        })
    }

    /// Adds a bytecode method.
    pub fn method(&mut self, class: ClassId, def: MethodDef) -> MethodId {
        self.program.add_method(class, def)
    }

    /// Declares a native method whose body starts at `label` in the
    /// app's assembler (resolved at [`finish`](AppBuilder::finish)).
    pub fn native_method(
        &mut self,
        class: ClassId,
        name: &str,
        shorty: &str,
        is_static: bool,
        label: Label,
    ) -> MethodId {
        let mut def = MethodDef::new(name, shorty, MethodKind::Native { entry: 0 });
        if !is_static {
            def = def.virtual_method();
        }
        let id = self.program.add_method(class, def);
        self.native_fixups.push((id, label));
        id
    }

    /// Places a NUL-terminated string in the data section.
    pub fn data_cstr(&mut self, s: &str) -> u32 {
        let addr = self.data_cursor;
        let mut bytes = s.as_bytes().to_vec();
        bytes.push(0);
        self.data_cursor += (bytes.len() as u32 + 7) & !7;
        self.data.push((addr, bytes));
        addr
    }

    /// Reserves a zeroed buffer in the data section.
    pub fn data_buffer(&mut self, size: u32) -> u32 {
        let addr = self.data_cursor;
        self.data_cursor += (size + 7) & !7;
        self.data.push((addr, vec![0; size as usize]));
        addr
    }

    /// Interns a Java string constant.
    pub fn string_const(&mut self, s: &str) -> u32 {
        self.program.intern(s)
    }

    /// Finalizes: assembles the native library, patches native method
    /// entry addresses, and returns the app.
    ///
    /// # Errors
    ///
    /// Assembly failures (unbound labels, out-of-range branches).
    pub fn finish(
        mut self,
        entry_class: &str,
        entry_method: &str,
    ) -> Result<App, ArmError> {
        let has_native = !self.native_fixups.is_empty();
        let code = self.asm.assemble()?;
        for (mid, label) in &self.native_fixups {
            self.program.set_native_entry(*mid, code.addr_of(*label));
        }
        Ok(App {
            name: self.name,
            description: self.description,
            program: self.program,
            native: if has_native || !code.bytes.is_empty() {
                Some(code)
            } else {
                None
            },
            data: self.data,
            lib_name: "libnative.so".to_string(),
            entry: (entry_class.to_string(), entry_method.to_string()),
            native_entry: None,
        })
    }

    /// Finalizes a **pure-native (Type III)** app: the entry point is
    /// the ARM code at `entry` rather than a Java method.
    ///
    /// # Errors
    ///
    /// Assembly failures (unbound labels, out-of-range branches).
    pub fn finish_pure_native(mut self, entry: Label) -> Result<App, ArmError> {
        let code = self.asm.assemble()?;
        for (mid, label) in &self.native_fixups {
            self.program.set_native_entry(*mid, code.addr_of(*label));
        }
        let native_entry = Some(code.addr_of(entry));
        Ok(App {
            name: self.name,
            description: self.description,
            program: self.program,
            native: Some(code),
            data: self.data,
            lib_name: "libmain.so".to_string(),
            entry: (String::new(), String::new()),
            native_entry,
        })
    }
}

/// Convenience: a `(value, taint)` argument list with no taints.
pub fn no_args() -> Vec<(u32, Taint)> {
    Vec::new()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndroid_arm::Reg;
    use ndroid_dvm::bytecode::DexInsn;
    use ndroid_dvm::InvokeKind;

    #[test]
    fn builder_assembles_and_patches_entries() {
        let mut b = AppBuilder::new("t", "test app");
        let c = b.class("Lapp/T;");
        let entry = b.asm.label();
        b.asm.bind(entry).unwrap();
        b.asm.add_imm(Reg::R0, Reg::R0, 5).unwrap();
        b.asm.bx(Reg::LR);
        let native = b.native_method(c, "plus5", "II", true, entry);
        let main = MethodDef::new(
            "main",
            "I",
            MethodKind::Bytecode(vec![
                DexInsn::Const { dst: 0, value: 37 },
                DexInsn::Invoke {
                    kind: InvokeKind::Static,
                    method: native,
                    args: vec![0],
                },
                DexInsn::MoveResult { dst: 0 },
                DexInsn::Return { src: 0 },
            ]),
        )
        .with_registers(1);
        b.method(c, main);
        let app = b.finish("Lapp/T;", "main").unwrap();
        assert!(app.native.is_some());

        let mut sys = app.launch(Mode::NDroid);
        let (v, _) = sys.run_java("Lapp/T;", "main", &[]).unwrap();
        assert_eq!(v, 42);
    }

    #[test]
    fn data_section_loads() {
        let mut b = AppBuilder::new("t", "d");
        let s = b.data_cstr("hello");
        let buf = b.data_buffer(32);
        assert!(buf > s);
        let c = b.class("Lapp/T;");
        b.method(
            c,
            MethodDef::new("main", "I", MethodKind::Bytecode(vec![
                DexInsn::Const { dst: 0, value: 0 },
                DexInsn::Return { src: 0 },
            ]))
            .with_registers(1),
        );
        let app = b.finish("Lapp/T;", "main").unwrap();
        let sys = app.launch(Mode::Vanilla);
        assert_eq!(sys.mem.read_cstr(s), b"hello");
    }
}
