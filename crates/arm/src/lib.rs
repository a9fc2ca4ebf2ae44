#![warn(missing_docs)]

//! # ndroid-arm
//!
//! An ARM32/Thumb instruction-set simulator: the substrate that replaces
//! QEMU's ARM system emulation in the NDroid reproduction.
//!
//! The crate provides:
//!
//! * [`Cpu`] — architectural state (R0–R15, CPSR flags, VFP registers).
//! * [`Memory`] — a sparse, paged guest address space.
//! * [`Assembler`] — a builder-style assembler producing *real* ARM/Thumb
//!   encodings, so native workloads are genuine machine code.
//! * [`decode`](decode::decode_arm) / [`thumb`] — decoders back to [`Instr`].
//! * [`exec`] — an interpreter whose [`Effect`] records (branches, effective
//!   addresses) feed NDroid's instruction tracer.
//!
//! The supported subset covers the instructions NDroid's taint logic handles
//! (Table V of the paper): data-processing, moves, multiplies,
//! loads/stores (word/byte/halfword, signed variants), load/store multiple
//! (`PUSH`/`POP`), branches (`B`/`BL`/`BX`/`BLX`), `SVC`, and a VFP subset
//! for the CF-Bench floating-point kernels.
//!
//! ```
//! use ndroid_arm::{Assembler, Cpu, Memory, Reg, exec};
//!
//! # fn main() -> Result<(), ndroid_arm::ArmError> {
//! let mut asm = Assembler::new(0x1000);
//! asm.mov_imm(Reg::R0, 7)?;
//! asm.add_imm(Reg::R0, Reg::R0, 35)?;
//! asm.bx(Reg::LR);
//! let code = asm.assemble()?;
//!
//! let mut mem = Memory::new();
//! mem.write_bytes(0x1000, &code.bytes);
//! let mut cpu = Cpu::new();
//! cpu.set_pc(0x1000);
//! cpu.regs[Reg::LR.index()] = 0xFFFF_FFFC; // sentinel return
//! while cpu.pc() != 0xFFFF_FFFC {
//!     exec::step(&mut cpu, &mut mem)?;
//! }
//! assert_eq!(cpu.regs[0], 42);
//! # Ok(())
//! # }
//! ```

pub mod asm;
pub mod block;
pub mod cond;
pub mod cpu;
pub mod decode;
pub mod disasm;
pub mod encode;
pub mod error;
pub mod exec;
pub mod icache;
pub mod insn;
pub mod mem;
pub mod reg;
pub mod thumb;
pub mod versioned;

pub use asm::{Assembler, CodeBlock, Label};
pub use block::{build_block, Block, BlockCache, BlockStep, TaintOp};
pub use cond::Cond;
pub use cpu::Cpu;
pub use error::ArmError;
pub use exec::{step, step_cached, step_decoded, Branch, Effect};
pub use icache::DecodeCache;
pub use insn::{AddrMode4, DpOp, Instr, MemOffset, MemSize, Op2, ShiftKind};
pub use mem::Memory;
pub use reg::Reg;
pub use versioned::PageVersioned;
