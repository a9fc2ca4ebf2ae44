//! Builder-style ARM and Thumb assemblers.
//!
//! The assemblers emit genuine machine-code encodings (via
//! [`crate::encode`] and [`crate::thumb::enc`]) with label-based
//! branches and a PC-relative literal pool, so that the "third-party
//! native libraries" of the NDroid reproduction are realistic binary
//! code that the decoder and instruction tracer process like QEMU
//! processed real `.so` files.

use crate::cond::Cond;
use crate::encode::encode;
use crate::error::ArmError;
use crate::insn::{AddrMode4, DpOp, Instr, MemOffset, MemSize, Op2, VfpOp, VfpPrec};
use crate::reg::{Reg, RegList};

/// A label identifying a position in the code being assembled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(usize);

/// The machine-code word of a single assembled ARM instruction —
/// the constant an app embeds when it plans to overwrite its own code
/// at runtime (self-patching / inline-detour idiom).
///
/// # Panics
///
/// Panics if `build` emits no instruction or an unencodable one.
pub fn encoding_of(build: impl FnOnce(&mut Assembler)) -> u32 {
    let mut asm = Assembler::new(0);
    build(&mut asm);
    let code = asm.assemble().expect("encodable instruction");
    u32::from_le_bytes(code.bytes[..4].try_into().expect("one instruction emitted"))
}

/// The encoding of `B <to>` as fetched from address `from` — the word
/// an inline detour stores over a function prologue to divert every
/// subsequent call into a patched copy.
///
/// # Errors
///
/// [`ArmError::BranchOutOfRange`] if `to` is outside the ±32 MiB
/// branch range of `from`.
pub fn branch_word(from: u32, to: u32) -> Result<u32, ArmError> {
    let offset = to.wrapping_sub(from.wrapping_add(8)) as i32;
    encode(&Instr::Branch {
        cond: Cond::Al,
        link: false,
        offset,
    })
    .map_err(|_| ArmError::BranchOutOfRange { from, to })
}

/// The output of assembly: a base address and the raw bytes to load at it.
#[derive(Debug, Clone)]
pub struct CodeBlock {
    /// Load address the code was assembled for.
    pub base: u32,
    /// The machine code (and literal pool) bytes.
    pub bytes: Vec<u8>,
    labels: Vec<Option<u32>>,
}

impl CodeBlock {
    /// The resolved address of `label`.
    ///
    /// # Panics
    ///
    /// Panics if the label was never bound (assembly would have failed).
    pub fn addr_of(&self, label: Label) -> u32 {
        self.labels[label.0].expect("label bound during assembly")
    }

    /// One past the last byte of the block.
    pub fn end(&self) -> u32 {
        self.base + self.bytes.len() as u32
    }
}

enum Item {
    /// A finished instruction word.
    Word(u32),
    /// A raw data word (no relocation).
    Data(u32),
    /// `B`/`BL` whose offset is patched when the label resolves.
    BranchTo { cond: Cond, link: bool, label: Label },
    /// `LDR rd, [pc, #off]` from the literal pool entry `pool_index`.
    LoadLiteral { cond: Cond, rd: Reg, pool_index: usize },
}

/// An ARM (A32) assembler.
///
/// Instructions are appended through mnemonic methods; [`assemble`]
/// resolves labels and lays down the literal pool.
///
/// [`assemble`]: Assembler::assemble
pub struct Assembler {
    base: u32,
    items: Vec<Item>,
    labels: Vec<Option<usize>>, // item index the label points at
    literals: Vec<u32>,
}

impl std::fmt::Debug for Assembler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Assembler")
            .field("base", &self.base)
            .field("items", &self.items.len())
            .field("labels", &self.labels.len())
            .field("literals", &self.literals.len())
            .finish()
    }
}

impl Assembler {
    /// Starts assembling at `base` (must be 4-byte aligned).
    ///
    /// # Panics
    ///
    /// Panics if `base` is not word-aligned.
    pub fn new(base: u32) -> Assembler {
        assert_eq!(base % 4, 0, "ARM code must be word aligned");
        Assembler {
            base,
            items: Vec::new(),
            labels: Vec::new(),
            literals: Vec::new(),
        }
    }

    /// The base address the code is being assembled for.
    pub fn base(&self) -> u32 {
        self.base
    }

    /// The address of the next instruction to be emitted.
    ///
    /// Valid because every item occupies exactly one word.
    pub fn here(&self) -> u32 {
        self.base + 4 * self.items.len() as u32
    }

    /// Creates a new, unbound label.
    pub fn label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() - 1)
    }

    /// Binds `label` to the current position.
    ///
    /// # Errors
    ///
    /// [`ArmError::RebindLabel`] if the label is already bound.
    pub fn bind(&mut self, label: Label) -> Result<(), ArmError> {
        if self.labels[label.0].is_some() {
            return Err(ArmError::RebindLabel(label.0));
        }
        self.labels[label.0] = Some(self.items.len());
        Ok(())
    }

    /// Creates a label already bound to the current position.
    pub fn here_label(&mut self) -> Label {
        self.labels.push(Some(self.items.len()));
        Label(self.labels.len() - 1)
    }

    /// Emits a pre-built instruction.
    ///
    /// # Panics
    ///
    /// Panics if the instruction cannot be encoded; use the checked
    /// mnemonic methods for fallible operands.
    pub fn emit(&mut self, instr: Instr) {
        let word = encode(&instr).expect("encodable instruction");
        self.items.push(Item::Word(word));
    }

    /// Emits a raw data word (e.g. an embedded constant).
    pub fn word(&mut self, value: u32) {
        self.items.push(Item::Data(value));
    }

    // --- data-processing -------------------------------------------------

    fn dp(&mut self, op: DpOp, s: bool, rd: Reg, rn: Reg, op2: Op2) {
        self.emit(Instr::Dp {
            cond: Cond::Al,
            op,
            s,
            rd,
            rn,
            op2,
        });
    }

    fn dp_imm(
        &mut self,
        op: DpOp,
        s: bool,
        rd: Reg,
        rn: Reg,
        imm: u32,
        ctx: &'static str,
    ) -> Result<(), ArmError> {
        let op2 = Op2::encode_imm(imm).ok_or(ArmError::UnencodableImmediate {
            value: imm,
            context: ctx,
        })?;
        self.dp(op, s, rd, rn, op2);
        Ok(())
    }

    /// `MOV rd, #imm` (rotated-immediate encodable values only; use
    /// [`ldr_const`](Assembler::ldr_const) for arbitrary constants).
    ///
    /// # Errors
    ///
    /// [`ArmError::UnencodableImmediate`] if `imm` has no rotated-imm8 form.
    pub fn mov_imm(&mut self, rd: Reg, imm: u32) -> Result<(), ArmError> {
        if Op2::encode_imm(imm).is_some() {
            self.dp_imm(DpOp::Mov, false, rd, Reg::R0, imm, "mov")
        } else if Op2::encode_imm(!imm).is_some() {
            self.dp_imm(DpOp::Mvn, false, rd, Reg::R0, !imm, "mvn")
        } else {
            Err(ArmError::UnencodableImmediate {
                value: imm,
                context: "mov",
            })
        }
    }

    /// `MOV rd, rm`
    pub fn mov(&mut self, rd: Reg, rm: Reg) {
        self.dp(DpOp::Mov, false, rd, Reg::R0, Op2::reg(rm));
    }

    /// `ADD rd, rn, rm`
    pub fn add(&mut self, rd: Reg, rn: Reg, rm: Reg) {
        self.dp(DpOp::Add, false, rd, rn, Op2::reg(rm));
    }

    /// `ADD rd, rn, #imm`
    ///
    /// # Errors
    ///
    /// [`ArmError::UnencodableImmediate`] if `imm` has no rotated-imm8 form.
    pub fn add_imm(&mut self, rd: Reg, rn: Reg, imm: u32) -> Result<(), ArmError> {
        self.dp_imm(DpOp::Add, false, rd, rn, imm, "add")
    }

    /// `SUB rd, rn, rm`
    pub fn sub(&mut self, rd: Reg, rn: Reg, rm: Reg) {
        self.dp(DpOp::Sub, false, rd, rn, Op2::reg(rm));
    }

    /// `SUB rd, rn, #imm`
    ///
    /// # Errors
    ///
    /// [`ArmError::UnencodableImmediate`] if `imm` has no rotated-imm8 form.
    pub fn sub_imm(&mut self, rd: Reg, rn: Reg, imm: u32) -> Result<(), ArmError> {
        self.dp_imm(DpOp::Sub, false, rd, rn, imm, "sub")
    }

    /// `SUBS rd, rn, #imm` (sets flags; loop counters).
    ///
    /// # Errors
    ///
    /// [`ArmError::UnencodableImmediate`] if `imm` has no rotated-imm8 form.
    pub fn subs_imm(&mut self, rd: Reg, rn: Reg, imm: u32) -> Result<(), ArmError> {
        self.dp_imm(DpOp::Sub, true, rd, rn, imm, "subs")
    }

    /// `ADDS rd, rn, rm`
    pub fn adds(&mut self, rd: Reg, rn: Reg, rm: Reg) {
        self.dp(DpOp::Add, true, rd, rn, Op2::reg(rm));
    }

    /// `AND rd, rn, rm`
    pub fn and(&mut self, rd: Reg, rn: Reg, rm: Reg) {
        self.dp(DpOp::And, false, rd, rn, Op2::reg(rm));
    }

    /// `AND rd, rn, #imm`
    ///
    /// # Errors
    ///
    /// [`ArmError::UnencodableImmediate`] if `imm` has no rotated-imm8 form.
    pub fn and_imm(&mut self, rd: Reg, rn: Reg, imm: u32) -> Result<(), ArmError> {
        self.dp_imm(DpOp::And, false, rd, rn, imm, "and")
    }

    /// `ORR rd, rn, rm`
    pub fn orr(&mut self, rd: Reg, rn: Reg, rm: Reg) {
        self.dp(DpOp::Orr, false, rd, rn, Op2::reg(rm));
    }

    /// `EOR rd, rn, rm`
    pub fn eor(&mut self, rd: Reg, rn: Reg, rm: Reg) {
        self.dp(DpOp::Eor, false, rd, rn, Op2::reg(rm));
    }

    /// `EOR rd, rn, #imm`
    ///
    /// # Errors
    ///
    /// [`ArmError::UnencodableImmediate`] if `imm` has no rotated-imm8 form.
    pub fn eor_imm(&mut self, rd: Reg, rn: Reg, imm: u32) -> Result<(), ArmError> {
        self.dp_imm(DpOp::Eor, false, rd, rn, imm, "eor")
    }

    /// `CMP rn, #imm`
    ///
    /// # Errors
    ///
    /// [`ArmError::UnencodableImmediate`] if `imm` has no rotated-imm8 form.
    pub fn cmp_imm(&mut self, rn: Reg, imm: u32) -> Result<(), ArmError> {
        self.dp_imm(DpOp::Cmp, true, Reg::R0, rn, imm, "cmp")
    }

    /// `CMP rn, rm`
    pub fn cmp(&mut self, rn: Reg, rm: Reg) {
        self.dp(DpOp::Cmp, true, Reg::R0, rn, Op2::reg(rm));
    }

    /// `LSL rd, rm, #amount`
    pub fn lsl_imm(&mut self, rd: Reg, rm: Reg, amount: u8) {
        self.dp(
            DpOp::Mov,
            false,
            rd,
            Reg::R0,
            Op2::RegShiftImm {
                rm,
                kind: crate::insn::ShiftKind::Lsl,
                amount,
            },
        );
    }

    /// `LSR rd, rm, #amount`
    pub fn lsr_imm(&mut self, rd: Reg, rm: Reg, amount: u8) {
        self.dp(
            DpOp::Mov,
            false,
            rd,
            Reg::R0,
            Op2::RegShiftImm {
                rm,
                kind: crate::insn::ShiftKind::Lsr,
                amount,
            },
        );
    }

    /// `MUL rd, rm, rs`
    pub fn mul(&mut self, rd: Reg, rm: Reg, rs: Reg) {
        self.emit(Instr::Mul {
            cond: Cond::Al,
            s: false,
            rd,
            rm,
            rs,
            acc: None,
        });
    }

    /// `MLA rd, rm, rs, ra`
    pub fn mla(&mut self, rd: Reg, rm: Reg, rs: Reg, ra: Reg) {
        self.emit(Instr::Mul {
            cond: Cond::Al,
            s: false,
            rd,
            rm,
            rs,
            acc: Some(ra),
        });
    }

    // --- memory -----------------------------------------------------------

    fn mem(&mut self, load: bool, size: MemSize, rd: Reg, rn: Reg, imm: u16) {
        self.emit(Instr::Mem {
            cond: Cond::Al,
            load,
            size,
            rd,
            rn,
            offset: MemOffset::Imm(imm),
            pre: true,
            up: true,
            writeback: false,
        });
    }

    /// `LDR rd, [rn, #imm]`
    pub fn ldr(&mut self, rd: Reg, rn: Reg, imm: u16) {
        self.mem(true, MemSize::Word, rd, rn, imm);
    }

    /// `STR rd, [rn, #imm]`
    pub fn str(&mut self, rd: Reg, rn: Reg, imm: u16) {
        self.mem(false, MemSize::Word, rd, rn, imm);
    }

    /// `LDRB rd, [rn, #imm]`
    pub fn ldrb(&mut self, rd: Reg, rn: Reg, imm: u16) {
        self.mem(true, MemSize::Byte, rd, rn, imm);
    }

    /// `STRB rd, [rn, #imm]`
    pub fn strb(&mut self, rd: Reg, rn: Reg, imm: u16) {
        self.mem(false, MemSize::Byte, rd, rn, imm);
    }

    /// `LDRH rd, [rn, #imm]`
    pub fn ldrh(&mut self, rd: Reg, rn: Reg, imm: u16) {
        self.mem(true, MemSize::Half, rd, rn, imm);
    }

    /// `STRH rd, [rn, #imm]`
    pub fn strh(&mut self, rd: Reg, rn: Reg, imm: u16) {
        self.mem(false, MemSize::Half, rd, rn, imm);
    }

    /// `LDR rd, [rn, rm]`
    pub fn ldr_reg(&mut self, rd: Reg, rn: Reg, rm: Reg) {
        self.emit(Instr::Mem {
            cond: Cond::Al,
            load: true,
            size: MemSize::Word,
            rd,
            rn,
            offset: MemOffset::Reg {
                rm,
                kind: crate::insn::ShiftKind::Lsl,
                amount: 0,
            },
            pre: true,
            up: true,
            writeback: false,
        });
    }

    /// `LDRB rd, [rn, rm]`
    pub fn ldrb_reg(&mut self, rd: Reg, rn: Reg, rm: Reg) {
        self.emit(Instr::Mem {
            cond: Cond::Al,
            load: true,
            size: MemSize::Byte,
            rd,
            rn,
            offset: MemOffset::Reg {
                rm,
                kind: crate::insn::ShiftKind::Lsl,
                amount: 0,
            },
            pre: true,
            up: true,
            writeback: false,
        });
    }

    /// `STRB rd, [rn, rm]`
    pub fn strb_reg(&mut self, rd: Reg, rn: Reg, rm: Reg) {
        self.emit(Instr::Mem {
            cond: Cond::Al,
            load: false,
            size: MemSize::Byte,
            rd,
            rn,
            offset: MemOffset::Reg {
                rm,
                kind: crate::insn::ShiftKind::Lsl,
                amount: 0,
            },
            pre: true,
            up: true,
            writeback: false,
        });
    }

    /// `PUSH {regs}`
    pub fn push(&mut self, regs: RegList) {
        self.emit(Instr::MemMulti {
            cond: Cond::Al,
            load: false,
            rn: Reg::SP,
            mode: AddrMode4::Db,
            writeback: true,
            regs,
        });
    }

    /// `POP {regs}`
    pub fn pop(&mut self, regs: RegList) {
        self.emit(Instr::MemMulti {
            cond: Cond::Al,
            load: true,
            rn: Reg::SP,
            mode: AddrMode4::Ia,
            writeback: true,
            regs,
        });
    }

    // --- control flow -----------------------------------------------------

    /// `B label`
    pub fn b(&mut self, label: Label) {
        self.items.push(Item::BranchTo {
            cond: Cond::Al,
            link: false,
            label,
        });
    }

    /// `B<cond> label`
    pub fn b_cond(&mut self, cond: Cond, label: Label) {
        self.items.push(Item::BranchTo {
            cond,
            link: false,
            label,
        });
    }

    /// `BL label`
    pub fn bl(&mut self, label: Label) {
        self.items.push(Item::BranchTo {
            cond: Cond::Al,
            link: true,
            label,
        });
    }

    /// `BX rm`
    pub fn bx(&mut self, rm: Reg) {
        self.emit(Instr::BranchExchange {
            cond: Cond::Al,
            link: false,
            rm,
        });
    }

    /// `BLX rm`
    pub fn blx(&mut self, rm: Reg) {
        self.emit(Instr::BranchExchange {
            cond: Cond::Al,
            link: true,
            rm,
        });
    }

    /// `SVC #imm`
    pub fn svc(&mut self, imm: u32) {
        self.emit(Instr::Svc {
            cond: Cond::Al,
            imm,
        });
    }

    /// Loads an arbitrary 32-bit constant via the literal pool
    /// (`LDR rd, [pc, #off]`).
    pub fn ldr_const(&mut self, rd: Reg, value: u32) {
        let pool_index = match self.literals.iter().position(|v| *v == value) {
            Some(i) => i,
            None => {
                self.literals.push(value);
                self.literals.len() - 1
            }
        };
        self.items.push(Item::LoadLiteral {
            cond: Cond::Al,
            rd,
            pool_index,
        });
    }

    /// Calls an absolute address: `LDR r12, =addr ; BLX r12`.
    ///
    /// This is the idiom third-party native code uses to call JNI and
    /// libc functions through their table addresses.
    pub fn call_abs(&mut self, addr: u32) {
        self.ldr_const(Reg::R12, addr);
        self.blx(Reg::R12);
    }

    /// Interworking call: `BLX r12` to `addr`, selecting the target
    /// instruction set via bit 0 (`thumb = true` forces Thumb). This is
    /// the ARM side of a Thumb↔ARM trampoline pair.
    pub fn call_interwork(&mut self, addr: u32, thumb: bool) {
        self.call_abs(if thumb { addr | 1 } else { addr & !1 });
    }

    // --- VFP ----------------------------------------------------------------

    /// `VLDR dd, [rn, #imm]`
    pub fn vldr_d(&mut self, dd: u8, rn: Reg, imm: u16) {
        self.emit(Instr::VfpMem {
            cond: Cond::Al,
            load: true,
            prec: VfpPrec::F64,
            fd: dd,
            rn,
            offset: imm,
            up: true,
        });
    }

    /// `VSTR dd, [rn, #imm]`
    pub fn vstr_d(&mut self, dd: u8, rn: Reg, imm: u16) {
        self.emit(Instr::VfpMem {
            cond: Cond::Al,
            load: false,
            prec: VfpPrec::F64,
            fd: dd,
            rn,
            offset: imm,
            up: true,
        });
    }

    /// `VLDR ss, [rn, #imm]`
    pub fn vldr_s(&mut self, ss: u8, rn: Reg, imm: u16) {
        self.emit(Instr::VfpMem {
            cond: Cond::Al,
            load: true,
            prec: VfpPrec::F32,
            fd: ss,
            rn,
            offset: imm,
            up: true,
        });
    }

    /// `VSTR ss, [rn, #imm]`
    pub fn vstr_s(&mut self, ss: u8, rn: Reg, imm: u16) {
        self.emit(Instr::VfpMem {
            cond: Cond::Al,
            load: false,
            prec: VfpPrec::F32,
            fd: ss,
            rn,
            offset: imm,
            up: true,
        });
    }

    fn vfp3(&mut self, op: VfpOp, prec: VfpPrec, fd: u8, fn_: u8, fm: u8) {
        self.emit(Instr::Vfp {
            cond: Cond::Al,
            op,
            prec,
            fd,
            fn_,
            fm,
        });
    }

    /// `VADD.F64 dd, dn, dm`
    pub fn vadd_d(&mut self, dd: u8, dn: u8, dm: u8) {
        self.vfp3(VfpOp::Add, VfpPrec::F64, dd, dn, dm);
    }

    /// `VSUB.F64 dd, dn, dm`
    pub fn vsub_d(&mut self, dd: u8, dn: u8, dm: u8) {
        self.vfp3(VfpOp::Sub, VfpPrec::F64, dd, dn, dm);
    }

    /// `VMUL.F64 dd, dn, dm`
    pub fn vmul_d(&mut self, dd: u8, dn: u8, dm: u8) {
        self.vfp3(VfpOp::Mul, VfpPrec::F64, dd, dn, dm);
    }

    /// `VDIV.F64 dd, dn, dm`
    pub fn vdiv_d(&mut self, dd: u8, dn: u8, dm: u8) {
        self.vfp3(VfpOp::Div, VfpPrec::F64, dd, dn, dm);
    }

    /// `VADD.F32 sd, sn, sm`
    pub fn vadd_s(&mut self, sd: u8, sn: u8, sm: u8) {
        self.vfp3(VfpOp::Add, VfpPrec::F32, sd, sn, sm);
    }

    /// `VMUL.F32 sd, sn, sm`
    pub fn vmul_s(&mut self, sd: u8, sn: u8, sm: u8) {
        self.vfp3(VfpOp::Mul, VfpPrec::F32, sd, sn, sm);
    }

    /// `VSUB.F32 sd, sn, sm`
    pub fn vsub_s(&mut self, sd: u8, sn: u8, sm: u8) {
        self.vfp3(VfpOp::Sub, VfpPrec::F32, sd, sn, sm);
    }

    // --- finish -------------------------------------------------------------

    /// Resolves labels, lays out the literal pool and returns the machine
    /// code.
    ///
    /// # Errors
    ///
    /// [`ArmError::UnboundLabel`] if any referenced label was never
    /// bound, or [`ArmError::BranchOutOfRange`] for unreachable targets.
    pub fn assemble(self) -> Result<CodeBlock, ArmError> {
        let code_words = self.items.len();
        let pool_base = self.base + 4 * code_words as u32;

        // Resolve label item-indices to addresses.
        let mut label_addrs: Vec<Option<u32>> = Vec::with_capacity(self.labels.len());
        for l in &self.labels {
            label_addrs.push(l.map(|idx| self.base + 4 * idx as u32));
        }

        let mut bytes = Vec::with_capacity(4 * (code_words + self.literals.len()));
        for (idx, item) in self.items.iter().enumerate() {
            let addr = self.base + 4 * idx as u32;
            let word = match item {
                Item::Word(w) | Item::Data(w) => *w,
                Item::BranchTo { cond, link, label } => {
                    let target =
                        label_addrs[label.0].ok_or(ArmError::UnboundLabel(label.0))?;
                    let offset = target.wrapping_sub(addr.wrapping_add(8)) as i32;
                    encode(&Instr::Branch {
                        cond: *cond,
                        link: *link,
                        offset,
                    })
                    .map_err(|_| ArmError::BranchOutOfRange {
                        from: addr,
                        to: target,
                    })?
                }
                Item::LoadLiteral {
                    cond,
                    rd,
                    pool_index,
                } => {
                    let lit_addr = pool_base + 4 * *pool_index as u32;
                    let offset = lit_addr.wrapping_sub(addr.wrapping_add(8)) as i32;
                    let (up, mag) = if offset >= 0 {
                        (true, offset as u32)
                    } else {
                        (false, (-offset) as u32)
                    };
                    if mag > 0xFFF {
                        return Err(ArmError::BranchOutOfRange {
                            from: addr,
                            to: lit_addr,
                        });
                    }
                    encode(&Instr::Mem {
                        cond: *cond,
                        load: true,
                        size: MemSize::Word,
                        rd: *rd,
                        rn: Reg::PC,
                        offset: MemOffset::Imm(mag as u16),
                        pre: true,
                        up,
                        writeback: false,
                    })?
                }
            };
            bytes.extend_from_slice(&word.to_le_bytes());
        }
        for lit in &self.literals {
            bytes.extend_from_slice(&lit.to_le_bytes());
        }
        Ok(CodeBlock {
            base: self.base,
            bytes,
            labels: label_addrs,
        })
    }
}

/// A Thumb (T16) assembler covering the subset the reproduction's
/// Thumb-mode native libraries need.
#[derive(Debug)]
pub struct ThumbAssembler {
    base: u32,
    halfwords: Vec<u16>,
    fixups: Vec<ThumbFixup>,
    labels: Vec<Option<u32>>, // resolved addresses
    literals: Vec<u32>,
}

#[derive(Debug)]
enum ThumbFixup {
    BCond {
        at: usize,
        cond: Cond,
        label: usize,
    },
    B {
        at: usize,
        label: usize,
    },
    Bl {
        at: usize,
        label: usize,
    },
    /// `LDR rd, [pc, #off]` against literal-pool entry `pool_index`.
    Literal {
        at: usize,
        rd: Reg,
        pool_index: usize,
    },
}

impl ThumbAssembler {
    /// Starts assembling Thumb code at `base` (must be halfword aligned).
    ///
    /// # Panics
    ///
    /// Panics if `base` is odd.
    pub fn new(base: u32) -> ThumbAssembler {
        assert_eq!(base % 2, 0, "Thumb code must be halfword aligned");
        ThumbAssembler {
            base,
            halfwords: Vec::new(),
            fixups: Vec::new(),
            labels: Vec::new(),
            literals: Vec::new(),
        }
    }

    /// Address of the next halfword to be emitted.
    pub fn here(&self) -> u32 {
        self.base + 2 * self.halfwords.len() as u32
    }

    /// Creates a new, unbound label.
    pub fn label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() - 1)
    }

    /// Binds `label` to the current position.
    ///
    /// # Errors
    ///
    /// [`ArmError::RebindLabel`] if already bound.
    pub fn bind(&mut self, label: Label) -> Result<(), ArmError> {
        if self.labels[label.0].is_some() {
            return Err(ArmError::RebindLabel(label.0));
        }
        self.labels[label.0] = Some(self.here());
        Ok(())
    }

    /// Emits a raw halfword.
    pub fn raw(&mut self, hw: u16) {
        self.halfwords.push(hw);
    }

    /// `B<cond> label`
    pub fn b_cond(&mut self, cond: Cond, label: Label) {
        self.fixups.push(ThumbFixup::BCond {
            at: self.halfwords.len(),
            cond,
            label: label.0,
        });
        self.halfwords.push(0);
    }

    /// `B label`
    pub fn b(&mut self, label: Label) {
        self.fixups.push(ThumbFixup::B {
            at: self.halfwords.len(),
            label: label.0,
        });
        self.halfwords.push(0);
    }

    /// `BL label`
    pub fn bl(&mut self, label: Label) {
        self.fixups.push(ThumbFixup::Bl {
            at: self.halfwords.len(),
            label: label.0,
        });
        self.halfwords.push(0);
        self.halfwords.push(0);
    }

    /// Loads an arbitrary 32-bit constant from the literal pool
    /// (`LDR rd, [pc, #off]`; `rd` must be R0–R7).
    pub fn ldr_const(&mut self, rd: Reg, value: u32) {
        let pool_index = match self.literals.iter().position(|v| *v == value) {
            Some(i) => i,
            None => {
                self.literals.push(value);
                self.literals.len() - 1
            }
        };
        self.fixups.push(ThumbFixup::Literal {
            at: self.halfwords.len(),
            rd,
            pool_index,
        });
        self.halfwords.push(0);
    }

    /// Calls an absolute address: `LDR r7, =addr ; BLX r7` — the idiom
    /// Thumb-mode libraries use for JNI/libc calls.
    pub fn call_abs(&mut self, addr: u32) {
        self.ldr_const(Reg::R7, addr);
        self.raw(crate::thumb::enc::blx(Reg::R7));
    }

    /// Interworking call from Thumb: `BLX r7` to `addr`, selecting the
    /// target instruction set via bit 0 (`thumb = false` drops back to
    /// ARM) — the Thumb side of a Thumb↔ARM trampoline pair.
    pub fn call_interwork(&mut self, addr: u32, thumb: bool) {
        self.call_abs(if thumb { addr | 1 } else { addr & !1 });
    }

    /// Resolves fixups and returns the machine code.
    ///
    /// # Errors
    ///
    /// [`ArmError::UnboundLabel`] for dangling references.
    pub fn assemble(self) -> Result<CodeBlock, ArmError> {
        use crate::thumb::enc;
        let ThumbAssembler {
            base,
            mut halfwords,
            fixups,
            labels,
            literals,
        } = self;
        // Literal pool starts after the code, 4-byte aligned.
        let code_end = base + 2 * halfwords.len() as u32;
        let pool_base = (code_end + 3) & !3;
        let pool_pad = ((pool_base - code_end) / 2) as usize;
        for fixup in fixups {
            match fixup {
                ThumbFixup::BCond { at, cond, label } => {
                    let target = labels[label].ok_or(ArmError::UnboundLabel(label))?;
                    let pc = base + 2 * at as u32 + 4;
                    let off = target.wrapping_sub(pc) as i32;
                    if !(-256..256).contains(&off) {
                        return Err(ArmError::BranchOutOfRange {
                            from: pc,
                            to: target,
                        });
                    }
                    halfwords[at] = enc::b_cond(cond, off);
                }
                ThumbFixup::B { at, label } => {
                    let target = labels[label].ok_or(ArmError::UnboundLabel(label))?;
                    let pc = base + 2 * at as u32 + 4;
                    let off = target.wrapping_sub(pc) as i32;
                    if !(-2048..2048).contains(&off) {
                        return Err(ArmError::BranchOutOfRange {
                            from: pc,
                            to: target,
                        });
                    }
                    halfwords[at] = enc::b(off);
                }
                ThumbFixup::Bl { at, label } => {
                    let target = labels[label].ok_or(ArmError::UnboundLabel(label))?;
                    let pc = base + 2 * at as u32 + 4;
                    let off = target.wrapping_sub(pc) as i32;
                    let (p, s) = enc::bl(off);
                    halfwords[at] = p;
                    halfwords[at + 1] = s;
                }
                ThumbFixup::Literal { at, rd, pool_index } => {
                    let lit_addr = pool_base + 4 * pool_index as u32;
                    // LDR rd, [pc, #imm8*4]: base = (insn_addr + 4) & !3.
                    let insn_addr = base + 2 * at as u32;
                    let pc_base = (insn_addr + 4) & !3;
                    let delta = lit_addr.wrapping_sub(pc_base);
                    if !delta.is_multiple_of(4) || delta / 4 > 0xFF {
                        return Err(ArmError::BranchOutOfRange {
                            from: insn_addr,
                            to: lit_addr,
                        });
                    }
                    // Format 6: 01001 rd imm8.
                    halfwords[at] =
                        0x4800 | ((rd.bits() as u16 & 7) << 8) | (delta / 4) as u16;
                }
            }
        }
        let mut bytes = Vec::with_capacity(2 * halfwords.len() + 4 * literals.len());
        for hw in &halfwords {
            bytes.extend_from_slice(&hw.to_le_bytes());
        }
        for _ in 0..pool_pad {
            bytes.extend_from_slice(&0u16.to_le_bytes());
        }
        for lit in &literals {
            bytes.extend_from_slice(&lit.to_le_bytes());
        }
        Ok(CodeBlock {
            base,
            bytes,
            labels,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_pool_loads_arbitrary_constant() {
        use crate::cpu::Cpu;
        use crate::exec::step;
        use crate::mem::Memory;
        let mut asm = Assembler::new(0x1000);
        asm.ldr_const(Reg::R0, 0xDEAD_BEEF);
        asm.ldr_const(Reg::R1, 0x1234_5678);
        asm.ldr_const(Reg::R2, 0xDEAD_BEEF); // deduplicated
        asm.bx(Reg::LR);
        let code = asm.assemble().unwrap();
        // 4 instruction words + 2 pool entries.
        assert_eq!(code.bytes.len(), 4 * 6);
        let mut mem = Memory::new();
        mem.write_bytes(0x1000, &code.bytes);
        let mut cpu = Cpu::new();
        cpu.set_pc(0x1000);
        cpu.regs[14] = 0xFFFF_FF00;
        while cpu.pc() != 0xFFFF_FF00 {
            step(&mut cpu, &mut mem).unwrap();
        }
        assert_eq!(cpu.regs[0], 0xDEAD_BEEF);
        assert_eq!(cpu.regs[1], 0x1234_5678);
        assert_eq!(cpu.regs[2], 0xDEAD_BEEF);
    }

    #[test]
    fn encoding_of_yields_the_instruction_word() {
        let word = encoding_of(|a| a.mov_imm(Reg::R0, 7).unwrap());
        // MOV r0, #7: cond=AL, opcode MOV, imm form.
        assert_eq!(word, 0xE3A0_0007);
    }

    #[test]
    fn branch_word_matches_assembled_branch() {
        // `B` from 0x1000 to 0x1020 assembled normally vs computed.
        let mut asm = Assembler::new(0x1000);
        let l = asm.label();
        for _ in 0..8 {
            asm.mov(Reg::R0, Reg::R0);
        }
        // Rebuild: first item is the branch.
        let mut asm2 = Assembler::new(0x1000);
        let l2 = asm2.label();
        asm2.b(l2);
        drop((asm, l));
        for _ in 0..7 {
            asm2.mov(Reg::R0, Reg::R0);
        }
        asm2.bind(l2).unwrap();
        let code = asm2.assemble().unwrap();
        let assembled = u32::from_le_bytes(code.bytes[..4].try_into().unwrap());
        assert_eq!(branch_word(0x1000, code.addr_of(l2)).unwrap(), assembled);
    }

    #[test]
    fn branch_word_executes_as_a_detour() {
        use crate::cpu::Cpu;
        use crate::exec::step;
        use crate::mem::Memory;
        // Patch word stored over a MOV: execution lands at the target.
        let mut asm = Assembler::new(0x3000);
        asm.mov_imm(Reg::R0, 1).unwrap(); // will be overwritten
        asm.bx(Reg::LR);
        asm.mov_imm(Reg::R0, 2).unwrap(); // detour target (0x3008)
        asm.bx(Reg::LR);
        let code = asm.assemble().unwrap();
        let mut mem = Memory::new();
        mem.write_bytes(0x3000, &code.bytes);
        mem.write_u32(0x3000, branch_word(0x3000, 0x3008).unwrap());
        let mut cpu = Cpu::new();
        cpu.set_pc(0x3000);
        cpu.regs[14] = 0xFFFF_FF00;
        while cpu.pc() != 0xFFFF_FF00 {
            step(&mut cpu, &mut mem).unwrap();
        }
        assert_eq!(cpu.regs[0], 2, "detoured past the original body");
    }

    #[test]
    fn branch_word_rejects_out_of_range() {
        assert!(matches!(
            branch_word(0, 0x0400_0000),
            Err(ArmError::BranchOutOfRange { .. })
        ));
    }

    #[test]
    fn unbound_label_fails() {
        let mut asm = Assembler::new(0x1000);
        let l = asm.label();
        asm.b(l);
        assert_eq!(asm.assemble().unwrap_err(), ArmError::UnboundLabel(0));
    }

    #[test]
    fn rebind_fails() {
        let mut asm = Assembler::new(0x1000);
        let l = asm.label();
        asm.bind(l).unwrap();
        assert_eq!(asm.bind(l).unwrap_err(), ArmError::RebindLabel(0));
    }

    #[test]
    fn label_addresses_resolve() {
        let mut asm = Assembler::new(0x2000);
        asm.mov(Reg::R0, Reg::R1);
        let f = asm.here_label();
        asm.mov(Reg::R2, Reg::R3);
        asm.bx(Reg::LR);
        let code = asm.assemble().unwrap();
        assert_eq!(code.addr_of(f), 0x2004);
        assert_eq!(code.end(), 0x2000 + 12);
    }

    #[test]
    fn mov_imm_falls_back_to_mvn() {
        use crate::cpu::Cpu;
        use crate::exec::step;
        use crate::mem::Memory;
        let mut asm = Assembler::new(0x1000);
        // 0xFFFFFFFE is not a rotated imm8, but its complement 1 is.
        asm.mov_imm(Reg::R0, 0xFFFF_FFFE).unwrap();
        asm.bx(Reg::LR);
        let code = asm.assemble().unwrap();
        let mut mem = Memory::new();
        mem.write_bytes(0x1000, &code.bytes);
        let mut cpu = Cpu::new();
        cpu.set_pc(0x1000);
        cpu.regs[14] = 0xFFFF_FF00;
        while cpu.pc() != 0xFFFF_FF00 {
            step(&mut cpu, &mut mem).unwrap();
        }
        assert_eq!(cpu.regs[0], 0xFFFF_FFFE);
    }

    #[test]
    fn thumb_assembler_branches() {
        use crate::cpu::Cpu;
        use crate::exec::step;
        use crate::mem::Memory;
        use crate::thumb::enc;
        // Count down from 3, incrementing r1 each iteration.
        let mut asm = ThumbAssembler::new(0x100);
        asm.raw(enc::mov_imm(Reg::R0, 3));
        asm.raw(enc::mov_imm(Reg::R1, 0));
        let top = asm.label();
        asm.bind(top).unwrap();
        asm.raw(enc::add_imm8(Reg::R1, 1));
        asm.raw(enc::sub_imm8(Reg::R0, 1));
        asm.b_cond(Cond::Ne, top);
        asm.raw(enc::bx(Reg::LR));
        let code = asm.assemble().unwrap();
        let mut mem = Memory::new();
        mem.write_bytes(0x100, &code.bytes);
        let mut cpu = Cpu::new();
        cpu.set_pc(0x101);
        cpu.regs[14] = 0xFFFF_FF00;
        while cpu.pc() != 0xFFFF_FF00 {
            step(&mut cpu, &mut mem).unwrap();
        }
        assert_eq!(cpu.regs[1], 3);
    }

    #[test]
    fn thumb_bl_roundtrip() {
        use crate::cpu::Cpu;
        use crate::exec::step;
        use crate::mem::Memory;
        use crate::thumb::enc;
        let mut asm = ThumbAssembler::new(0x200);
        let func = asm.label();
        asm.raw(enc::mov_imm(Reg::R0, 1));
        asm.bl(func);
        asm.raw(enc::bx(Reg::LR)); // final return (LR restored by callee? no: clobbered)
        asm.bind(func).unwrap();
        asm.raw(enc::add_imm8(Reg::R0, 41));
        asm.raw(enc::bx(Reg::LR));
        let code = asm.assemble().unwrap();
        let mut mem = Memory::new();
        mem.write_bytes(0x200, &code.bytes);
        let mut cpu = Cpu::new();
        cpu.set_pc(0x201);
        // Run until we come back from the BL (bx lr at 0x206).
        let mut steps = 0;
        while cpu.regs[0] != 42 && steps < 100 {
            step(&mut cpu, &mut mem).unwrap();
            steps += 1;
        }
        assert_eq!(cpu.regs[0], 42);
        assert!(cpu.thumb);
    }
}
