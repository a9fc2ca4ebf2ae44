//! Superblock discovery and pre-compiled taint "effect programs".
//!
//! [`lower_taint`] is the one place the paper's Table V is written
//! down: it compiles an instruction's taint semantics into a
//! straight-line [`TaintOp`], which the tracer crate applies against its
//! own shadow state. Both execution modes run through it. Superblocks
//! lower each instruction once at build time: starting from a block
//! entry we decode forward *once*, bake every step into a [`BlockStep`],
//! and cache the resulting [`Block`] per page so a hot loop
//! re-dispatches a single block instead of N instructions — the
//! interpreter-shaped analogue of QEMU's translation blocks. The
//! per-instruction stepper lowers each executed instruction into a
//! one-step [`BlockStep`] and takes the same path.
//!
//! **Correctness is carried by the executor, not the builder.** A block
//! is only a *prediction* of straight-line execution: any instruction
//! that actually redirects control flow at runtime (a conditional
//! branch taken mid-block, an ALU write to PC, a load into PC, even a
//! store with PC writeback) produces an [`crate::Effect::branch`] and
//! the executor exits the block there. The builder's terminator
//! detection (`is_branch` + unconditional condition) is purely a
//! sizing heuristic.
//!
//! Invalidation is the shared [`PageVersioned`] protocol, also behind
//! [`crate::icache`]. Blocks never span a page (discovery stops at the
//! boundary, and page-straddling instructions are excluded like the
//! icache does), so one generation word covers all of a block's code
//! bytes. Stores *by* a block into its own page are the one case lazy
//! invalidation cannot see mid-flight; [`Block::store_hits_code`] gives
//! executors the arithmetic check they use to bail out of the block
//! after such a store and re-enter through the (now stale, hence
//! rebuilt) cache.

use crate::cond::Cond;
use crate::exec::decode_at;
use crate::insn::{Instr, MemOffset, Op2, VfpOp, VfpPrec};
use crate::mem::{Memory, PAGE_MASK, PAGE_SHIFT, PAGE_SIZE};
use crate::reg::{Reg, RegList};
use crate::versioned::{IntMap, PageVersioned};

/// Upper bound on instructions per block. Long straight-line runs are
/// split; the tail re-enters through the cache as its own block.
pub const MAX_BLOCK_STEPS: usize = 64;

/// Sentinel register index meaning "no index register" in memory ops.
pub const NO_REG: u8 = 16;

/// One instruction's taint semantics, pre-compiled from [`Instr`] by
/// [`lower_taint`]. The encoding is taint-representation-agnostic — it
/// names shadow registers/slots and widths, and the tracer crate
/// interprets it against its own taint type.
///
/// An op is only applied when the instruction's condition passed
/// (`Effect::executed`); the addressing data (`Effect::addr`) still
/// comes from the executed [`crate::Effect`], so no address arithmetic
/// is re-derived here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaintOp {
    /// No shadow-state change: compares (`CMP`/`TST`/VFP `Cmp`),
    /// `VMRS`, ALU/multiply writes to PC (the tracer never writes the
    /// PC's shadow register), branches and `SVC`. Still counts as a
    /// propagation step when traced.
    Nop,
    /// `regs[rd] := union of regs in srcs` (bitmask over R0–R15; an
    /// empty mask clears `rd`). Covers data-processing and multiplies.
    SetReg {
        /// Destination register index (never 15).
        rd: u8,
        /// Bitmask of source register indices unioned into `rd`.
        srcs: u16,
    },
    /// Single load: `rd := mem[addr..addr+width] | regs[rn] (| regs[rm])`,
    /// preceded by the register-offset writeback union when `wb`.
    Load {
        /// Destination (15 = PC: writeback still applies, write skipped).
        rd: u8,
        /// Base register index.
        rn: u8,
        /// Index register, [`NO_REG`] for immediate offsets.
        rm: u8,
        /// Access width in bytes.
        width: u8,
        /// Register-offset writeback taints the base first.
        wb: bool,
    },
    /// Single store: `mem[addr..addr+width] := regs[rd]` (a taint
    /// *set*, not a union), preceded by the writeback union when `wb`.
    Store {
        /// Source register index.
        rd: u8,
        /// Base register index.
        rn: u8,
        /// Index register, [`NO_REG`] for immediate offsets.
        rm: u8,
        /// Access width in bytes.
        width: u8,
        /// Register-offset writeback taints the base first.
        wb: bool,
    },
    /// `LDM`: each listed register gets `mem[slot] | regs[rn]` (base
    /// taint captured before any load lands; PC skipped).
    LoadMulti {
        /// Base register index.
        rn: u8,
        /// Registers loaded, in ascending order.
        regs: RegList,
    },
    /// `STM`: each 4-byte slot is *set* to the listed register's taint.
    StoreMulti {
        /// Registers stored, in ascending order.
        regs: RegList,
    },
    /// VFP data-processing: `fd := fm (| fn_)` over 1 (`F32`) or 2
    /// (`F64`) shadow slots.
    VfpAlu {
        /// Precision (slot aliasing: `Dn` covers `S2n`/`S2n+1`).
        prec: VfpPrec,
        /// Destination register number.
        fd: u8,
        /// First operand register number.
        fn_: u8,
        /// Second operand register number.
        fm: u8,
        /// `VMOV` (unary): only `fm` feeds the result.
        mov: bool,
    },
    /// VFP load: slots of `fd` get `mem[addr..] | regs[rn]`.
    VfpLoad {
        /// Precision.
        prec: VfpPrec,
        /// Destination VFP register number.
        fd: u8,
        /// Base core register index.
        rn: u8,
    },
    /// VFP store: memory is *set* to the union of `fd`'s slots.
    VfpStore {
        /// Precision.
        prec: VfpPrec,
        /// Source VFP register number.
        fd: u8,
    },
}

/// Whether an instruction touches taint state at all: control
/// transfers and `SVC` carry no Table V handler, everything else is
/// traced.
#[inline]
pub fn is_taint_relevant(instr: &Instr) -> bool {
    !matches!(
        instr,
        Instr::Branch { .. } | Instr::BranchExchange { .. } | Instr::Svc { .. }
    )
}

/// Register-index bit for source masks.
#[inline]
fn bit(r: Reg) -> u16 {
    1 << r.index()
}

/// Pre-compiles one instruction's Table V taint semantics — the only
/// taint-propagation `match` over [`Instr`] in the optimized engines.
/// The tracer crate's differential test holds it bit-identical to the
/// reference engine's independent interpretation.
pub fn lower_taint(instr: &Instr) -> TaintOp {
    match *instr {
        Instr::Dp {
            op, rd, rn, op2, ..
        } => {
            if op.is_compare() || rd == Reg::PC {
                return TaintOp::Nop;
            }
            let mut srcs = 0u16;
            if op.uses_rn() {
                srcs |= bit(rn);
            }
            match op2 {
                Op2::Imm { .. } => {}
                Op2::RegShiftImm { rm, .. } => srcs |= bit(rm),
                Op2::RegShiftReg { rm, rs, .. } => srcs |= bit(rm) | bit(rs),
            }
            TaintOp::SetReg {
                rd: rd.index() as u8,
                srcs,
            }
        }
        Instr::Mul {
            rd, rm, rs, acc, ..
        } => {
            if rd == Reg::PC {
                return TaintOp::Nop;
            }
            let mut srcs = bit(rm) | bit(rs);
            if let Some(ra) = acc {
                srcs |= bit(ra);
            }
            TaintOp::SetReg {
                rd: rd.index() as u8,
                srcs,
            }
        }
        Instr::Mem {
            load,
            size,
            rd,
            rn,
            offset,
            pre,
            writeback,
            ..
        } => {
            let rm = match offset {
                MemOffset::Imm(_) => NO_REG,
                MemOffset::Reg { rm, .. } => rm.index() as u8,
            };
            // Base-register writeback (`[Rn, Rm]!` and every
            // post-indexed form) leaves Rn = Rn ± offset — pointer
            // arithmetic, so a register offset's taint joins t(Rn). An
            // immediate offset cannot change t(Rn).
            let wb = (writeback || !pre) && rm != NO_REG && rn != Reg::PC;
            let rd = rd.index() as u8;
            let rn = rn.index() as u8;
            let width = size.bytes() as u8;
            if load {
                TaintOp::Load {
                    rd,
                    rn,
                    rm,
                    width,
                    wb,
                }
            } else {
                TaintOp::Store {
                    rd,
                    rn,
                    rm,
                    width,
                    wb,
                }
            }
        }
        Instr::MemMulti { load, rn, regs, .. } => {
            // Writeback here is Rn ± 4·n, a constant: t(Rn) unchanged.
            if load {
                TaintOp::LoadMulti {
                    rn: rn.index() as u8,
                    regs,
                }
            } else {
                TaintOp::StoreMulti { regs }
            }
        }
        Instr::Branch { .. } | Instr::BranchExchange { .. } | Instr::Svc { .. } => TaintOp::Nop,
        Instr::Vfp {
            op, prec, fd, fn_, fm, ..
        } => {
            if op == VfpOp::Cmp {
                return TaintOp::Nop;
            }
            TaintOp::VfpAlu {
                prec,
                fd,
                fn_,
                fm,
                mov: op == VfpOp::Mov,
            }
        }
        Instr::VfpMem {
            load, prec, fd, rn, ..
        } => {
            if load {
                TaintOp::VfpLoad {
                    prec,
                    fd,
                    rn: rn.index() as u8,
                }
            } else {
                TaintOp::VfpStore { prec, fd }
            }
        }
        Instr::VfpMrs { .. } => TaintOp::Nop,
    }
}

/// Whether an instruction is store-class (memory written from registers;
/// true even for an empty-list `STM`, whose effective address the §VII
/// protector still checks).
#[inline]
pub fn is_store(instr: &Instr) -> bool {
    matches!(
        instr,
        Instr::Mem { load: false, .. }
            | Instr::MemMulti { load: false, .. }
            | Instr::VfpMem { load: false, .. }
    )
}

/// Byte span a store instruction writes (0 for non-stores and for an
/// empty-list `STM`). Used for the own-page self-modifying-code check.
fn store_bytes(instr: &Instr) -> u8 {
    match *instr {
        Instr::Mem {
            load: false, size, ..
        } => size.bytes() as u8,
        Instr::MemMulti {
            load: false, regs, ..
        } => (4 * regs.len()) as u8,
        Instr::VfpMem {
            load: false, prec, ..
        } => match prec {
            VfpPrec::F32 => 4,
            VfpPrec::F64 => 8,
        },
        _ => 0,
    }
}

/// One pre-decoded, pre-lowered instruction inside a [`Block`].
#[derive(Debug, Clone, Copy)]
pub struct BlockStep {
    /// The decoded instruction, executed via [`crate::step_decoded`].
    pub instr: Instr,
    /// Instruction size in bytes.
    pub size: u8,
    /// Baked taint-relevance classification (see [`is_taint_relevant`]).
    pub relevant: bool,
    /// Whether this is a store-class instruction (see [`is_store`]).
    pub is_store: bool,
    /// Bytes a store writes (0 when none) — the self-modification span.
    pub store_bytes: u8,
    /// The pre-compiled taint semantics.
    pub taint: TaintOp,
}

impl BlockStep {
    /// Lowers one decoded instruction of `size` bytes.
    #[inline]
    pub fn new(instr: Instr, size: u8) -> BlockStep {
        BlockStep {
            instr,
            size,
            relevant: is_taint_relevant(&instr),
            is_store: is_store(&instr),
            store_bytes: store_bytes(&instr),
            taint: lower_taint(&instr),
        }
    }
}

/// A decoded superblock: a straight-line run of instructions starting
/// at `entry`, confined to one guest page, ending at the first
/// unconditional control transfer (or page edge / size cap / decode
/// failure). Conditional branches may sit mid-block — executors exit
/// the block on *any* runtime branch effect.
#[derive(Debug, Clone)]
pub struct Block {
    steps: Vec<BlockStep>,
    /// Entry program counter.
    pub entry: u32,
    /// Instruction set the block was decoded in.
    pub thumb: bool,
    pageno: u32,
}

impl Block {
    /// The block's pre-compiled steps, in execution order.
    #[inline]
    pub fn steps(&self) -> &[BlockStep] {
        &self.steps
    }

    /// Number of instructions in the block.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether the block holds no instructions (never true for a block
    /// returned by [`build_block`]).
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Whether a store of `span` bytes at `addr` touches this block's
    /// code page. A span is at most 64 bytes, so it can never strictly
    /// contain a 4 KiB page: checking both endpoints suffices.
    #[inline]
    pub fn store_hits_code(&self, addr: u32, span: u8) -> bool {
        debug_assert!(span >= 1);
        addr >> PAGE_SHIFT == self.pageno
            || addr.wrapping_add(span as u32 - 1) >> PAGE_SHIFT == self.pageno
    }
}

/// Discovers and pre-compiles the superblock entered at `pc`.
///
/// Decoding stops (exclusively — the offending address is *not* part of
/// the block) at: an address where `stop` answers `true` (host-table
/// trap addresses the run loop must dispatch itself), the page
/// boundary, a page-straddling instruction, a decode failure (the
/// stepper fallback raises the identical error), or [`MAX_BLOCK_STEPS`].
/// It stops *inclusively* after an unconditionally-executed
/// control-transfer instruction. Returns `None` when no instruction
/// could be included (the caller falls back to single-stepping, and
/// nothing is cached, so a decode error at `pc` is re-raised verbatim).
pub fn build_block(
    mem: &Memory,
    entry: u32,
    thumb: bool,
    stop: impl Fn(u32) -> bool,
) -> Option<Block> {
    if stop(entry) {
        return None;
    }
    let pageno = entry >> PAGE_SHIFT;
    let mut steps = Vec::new();
    let mut pc = entry;
    while steps.len() < MAX_BLOCK_STEPS {
        if pc >> PAGE_SHIFT != pageno || (!steps.is_empty() && stop(pc)) {
            break;
        }
        let Ok((instr, size)) = decode_at(mem, pc, thumb) else {
            break;
        };
        if (pc & PAGE_MASK) as usize + size as usize > PAGE_SIZE {
            break;
        }
        steps.push(BlockStep::new(instr, size));
        if instr.is_branch() && instr.cond() == Cond::Al {
            break;
        }
        pc = pc.wrapping_add(size as u32);
    }
    if steps.is_empty() {
        return None;
    }
    Some(Block {
        steps,
        entry,
        thumb,
        pageno,
    })
}

/// Block key within a page: offset bits 0–11, thumb bit 12.
#[inline]
fn block_key(pc: u32, thumb: bool) -> u16 {
    (pc & PAGE_MASK) as u16 | ((thumb as u16) << 12)
}

/// Page-organized cache of compiled [`Block`]s keyed by `(entry,
/// thumb)`, invalidated by the same [`PageVersioned`] protocol as the
/// decoded-instruction cache. See the module docs.
pub type BlockCache = PageVersioned<IntMap<u16, Block>>;

impl PageVersioned<IntMap<u16, Block>> {
    /// The cached block entered at `(pc, thumb)`, if still valid
    /// against `mem`'s current write generation.
    #[inline]
    pub fn lookup(&mut self, mem: &Memory, pc: u32, thumb: bool) -> Option<&Block> {
        self.probe(mem, pc, |blocks| blocks.get(&block_key(pc, thumb)))
    }

    /// Records a freshly built block under `mem`'s current write
    /// generation and returns a reference to the cached copy (so the
    /// caller can dispatch it without a second probe).
    pub fn insert(&mut self, mem: &Memory, block: Block) -> &Block {
        let key = block_key(block.entry, block.thumb);
        let blocks = self.record(mem, block.entry);
        blocks.insert(key, block);
        &blocks[&key]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MOV_R0_7: u32 = 0xE3A0_0007; // mov r0, #7
    const ADD_R0_1: u32 = 0xE280_0001; // add r0, r0, #1
    const BX_LR: u32 = 0xE12F_FF1E; // bx lr
    const BNE_BACK2: u32 = 0x1AFF_FFFC; // bne .-8
    const STR_R0_R1: u32 = 0xE581_0000; // str r0, [r1]

    fn code(words: &[u32], base: u32) -> Memory {
        let mut mem = Memory::new();
        for (i, w) in words.iter().enumerate() {
            mem.write_u32(base + 4 * i as u32, *w);
        }
        mem
    }

    #[test]
    fn block_ends_at_unconditional_branch() {
        let mem = code(&[MOV_R0_7, ADD_R0_1, BX_LR, ADD_R0_1], 0x8000);
        let b = build_block(&mem, 0x8000, false, |_| false).expect("block");
        assert_eq!(b.len(), 3, "bx lr terminates the block inclusively");
        assert!(b.steps()[2].instr.is_branch());
        assert!(!b.steps()[2].relevant, "branches carry no taint handler");
        assert_eq!(b.steps()[0].taint, TaintOp::SetReg { rd: 0, srcs: 0 });
        assert_eq!(b.steps()[1].taint, TaintOp::SetReg { rd: 0, srcs: 1 });
    }

    #[test]
    fn conditional_branch_sits_mid_block() {
        let mem = code(&[ADD_R0_1, ADD_R0_1, BNE_BACK2, MOV_R0_7, BX_LR], 0x8000);
        let b = build_block(&mem, 0x8000, false, |_| false).expect("block");
        assert_eq!(
            b.len(),
            5,
            "the superblock runs through the conditional branch"
        );
    }

    #[test]
    fn decode_failure_truncates_block() {
        let mut mem = code(&[ADD_R0_1, ADD_R0_1], 0x8000);
        mem.write_u32(0x8008, 0xFFFF_FFFF); // undefined
        let b = build_block(&mem, 0x8000, false, |_| false).expect("block");
        assert_eq!(b.len(), 2, "undefined word excluded; stepper re-raises it");
        assert!(build_block(&mem, 0x8008, false, |_| false).is_none());
    }

    #[test]
    fn stop_predicate_excludes_host_addresses() {
        let mem = code(&[ADD_R0_1, ADD_R0_1, ADD_R0_1], 0x8000);
        let b = build_block(&mem, 0x8000, false, |pc| pc == 0x8008).expect("block");
        assert_eq!(b.len(), 2, "host trap address never joins a block");
        assert!(
            build_block(&mem, 0x8008, false, |pc| pc == 0x8008).is_none(),
            "building at a host trap address is refused"
        );
    }

    #[test]
    fn block_never_crosses_a_page() {
        let mut mem = Memory::new();
        for i in 0..8u32 {
            mem.write_u32(0x8FF0 + 4 * i, ADD_R0_1);
        }
        let b = build_block(&mem, 0x8FF0, false, |_| false).expect("block");
        assert_eq!(b.len(), 4, "discovery stops at the page edge");
    }

    #[test]
    fn store_steps_carry_span_metadata() {
        let mem = code(&[STR_R0_R1, BX_LR], 0x8000);
        let b = build_block(&mem, 0x8000, false, |_| false).expect("block");
        let s = &b.steps()[0];
        assert!(s.is_store);
        assert_eq!(s.store_bytes, 4);
        assert!(b.store_hits_code(0x8FFC, 4));
        assert!(b.store_hits_code(0x7FFD, 4), "tail overlaps the code page");
        assert!(!b.store_hits_code(0x9000, 4));
    }

    #[test]
    fn cache_hits_and_page_write_invalidates() {
        let mem = code(&[ADD_R0_1, BX_LR], 0x8000);
        let mut c = BlockCache::new();
        assert!(c.lookup(&mem, 0x8000, false).is_none());
        let b = build_block(&mem, 0x8000, false, |_| false).unwrap();
        c.insert(&mem, b);
        assert_eq!(c.lookup(&mem, 0x8000, false).expect("hit").len(), 2);
        assert_eq!((c.hits, c.misses, c.built), (1, 1, 1));

        let mut mem = mem;
        mem.write_u8(0x8FFF, 0x42); // anywhere on the page
        assert!(c.lookup(&mem, 0x8000, false).is_none(), "stale page drops");
        assert_eq!(c.invalidations, 1);
    }

    #[test]
    fn thumb_and_arm_entries_do_not_alias() {
        let mem = code(&[ADD_R0_1, BX_LR], 0x8000);
        let mut c = BlockCache::new();
        let b = build_block(&mem, 0x8000, false, |_| false).unwrap();
        c.insert(&mem, b);
        assert!(c.lookup(&mem, 0x8000, true).is_none());
    }

    #[test]
    fn different_lineage_memory_drops_cached_blocks() {
        // Same cross-lineage aliasing hazard as the icache: an
        // unrelated memory can reproduce the pinned slot+version shape
        // while holding different bytes, so lineage is part of validity.
        let mem = code(&[ADD_R0_1, BX_LR], 0x8000);
        let mut c = BlockCache::new();
        let b = build_block(&mem, 0x8000, false, |_| false).unwrap();
        c.insert(&mem, b);
        assert!(c.lookup(&mem, 0x8000, false).is_some());

        let other = code(&[MOV_R0_7, MOV_R0_7], 0x8000);
        assert!(
            c.lookup(&other, 0x8000, false).is_none(),
            "blocks built from mem's bytes must not validate against another lineage"
        );
        assert_eq!(c.page_count(), 0);
    }

    #[test]
    fn fork_rebind_keeps_blocks_warm_and_smc_aware() {
        let mem = code(&[ADD_R0_1, BX_LR], 0x8000);
        let mut c = BlockCache::new();
        let b = build_block(&mem, 0x8000, false, |_| false).unwrap();
        c.insert(&mem, b);

        let mut child = mem.fork();
        let mut forked = c.clone();
        // Without a rebind the fork counts as a foreign lineage...
        assert!(forked.lookup(&child, 0x8000, false).is_none());
        // ...so re-warm a fresh clone the way a snapshot fork does.
        let mut forked = c.clone();
        forked.rebind_epoch(child.epoch());
        assert!(
            forked.lookup(&child, 0x8000, false).is_some(),
            "snapshot fork carries warm compiled blocks"
        );
        // SMC after fork: the child patching its own code must drop the
        // carried block.
        child.write_u32(0x8000, MOV_R0_7);
        assert!(forked.lookup(&child, 0x8000, false).is_none());
        assert_eq!(forked.invalidations, 1);
        // The parent-bound cache still serves the parent.
        assert!(c.lookup(&mem, 0x8000, false).is_some());
    }
}
