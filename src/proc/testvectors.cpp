#include "proc/testvectors.hpp"

#include <cassert>
#include <random>
#include <sstream>

namespace svlc::proc {

namespace {

const char* kSpinUser = "spin: j spin\n";

/// Kernel image that immediately drops to user mode (epc starts at 0, so
/// the user program begins at user address 0) and parks the kernel
/// handler at the kernel entry.
std::string kernel_passthrough() {
    return R"(
        sysret            # drop to user mode; user starts at 0
boot_spin: j boot_spin
        .org 0x200
        # kernel handler: tag $8 with a marker, return to user
        addiu $8, $0, 0x77
        sysret
kspin:  j kspin
)";
}

TestVector directed(const std::string& name, const std::string& user_body,
                    const std::string& kernel = "") {
    TestVector vec;
    vec.name = name;
    vec.kernel_asm = kernel.empty() ? kernel_passthrough() : kernel;
    vec.user_asm = user_body;
    return vec;
}

/// Kernel-mode-only vector (never leaves kernel).
TestVector kernel_only(const std::string& name, const std::string& body) {
    TestVector vec;
    vec.name = name;
    vec.kernel_asm = body;
    vec.user_asm = kSpinUser;
    return vec;
}

void add_directed(std::vector<TestVector>& out) {
    // ---------------- ALU register-register ----------------
    out.push_back(kernel_only("alu_addu", R"(
        addiu $1, $0, 123
        addiu $2, $0, 456
        addu $3, $1, $2
spin:   j spin
)"));
    out.push_back(kernel_only("alu_subu", R"(
        addiu $1, $0, 100
        addiu $2, $0, 456
        subu $3, $1, $2     # wraps below zero
        subu $4, $2, $1
spin:   j spin
)"));
    out.push_back(kernel_only("alu_logic", R"(
        lui $1, 0xF0F0
        ori $1, $1, 0x3C3C
        lui $2, 0x0FF0
        ori $2, $2, 0xAAAA
        and $3, $1, $2
        or $4, $1, $2
        xor $5, $1, $2
        nor $6, $1, $2
spin:   j spin
)"));
    out.push_back(kernel_only("alu_slt_signed", R"(
        addiu $1, $0, -5     # 0xFFFFFFFB
        addiu $2, $0, 3
        slt $3, $1, $2       # -5 < 3 -> 1
        slt $4, $2, $1       # 3 < -5 -> 0
        slt $5, $1, $1       # equal -> 0
spin:   j spin
)"));
    out.push_back(kernel_only("alu_sltu", R"(
        addiu $1, $0, -5     # huge unsigned
        addiu $2, $0, 3
        sltu $3, $1, $2      # 0xFFFFFFFB < 3 ? no
        sltu $4, $2, $1      # yes
spin:   j spin
)"));
    out.push_back(kernel_only("alu_shifts", R"(
        addiu $1, $0, 0x1234
        sll $2, $1, 4
        sll $3, $1, 0
        srl $4, $1, 4
        sll $5, $1, 31
        srl $6, $5, 31
spin:   j spin
)"));
    out.push_back(kernel_only("alu_immediates", R"(
        addiu $1, $0, 0x7FFF
        addiu $2, $1, -1
        slti $3, $2, 0x7FFF
        andi $4, $1, 0x00FF
        ori $5, $1, 0xFF00
        xori $6, $1, 0xFFFF
spin:   j spin
)"));
    out.push_back(kernel_only("alu_lui_ori_pair", R"(
        lui $1, 0xDEAD
        ori $1, $1, 0xBEEF
        lui $2, 0xFFFF
        ori $3, $2, 0xFFFF
spin:   j spin
)"));
    out.push_back(kernel_only("alu_r0_writes_ignored", R"(
        addiu $0, $0, 55     # writes to $0 must vanish
        addu $1, $0, $0
        addiu $2, $0, 7
        sll $0, $2, 3
        or $3, $0, $2
spin:   j spin
)"));
    out.push_back(kernel_only("alu_negative_immediates", R"(
        addiu $1, $0, -1
        addiu $2, $1, -32768
        slti $3, $1, 0
        slti $4, $1, -2
spin:   j spin
)"));

    // ---------------- bypassing / hazards ----------------
    out.push_back(kernel_only("bypass_ex_ex", R"(
        addiu $1, $0, 3
        addu $2, $1, $1      # needs EX->EX bypass
        addu $3, $2, $2
        addu $4, $3, $3
spin:   j spin
)"));
    out.push_back(kernel_only("bypass_mem_ex", R"(
        addiu $1, $0, 5
        addiu $9, $0, 1      # filler
        addu $2, $1, $1      # producer 2 back: MEM->EX
        addiu $9, $9, 1
        addu $3, $2, $1
spin:   j spin
)"));
    out.push_back(kernel_only("bypass_wb_decode", R"(
        addiu $1, $0, 9
        addiu $9, $0, 0
        addiu $9, $9, 0
        addu $2, $1, $1      # producer 3 back: WB-time forward at D
spin:   j spin
)"));
    out.push_back(kernel_only("load_use_stall", R"(
        addiu $1, $0, 64
        addiu $2, $0, 0x5A5A
        sw $2, 0($1)
        lw $3, 0($1)
        addu $4, $3, $3      # immediate use: needs the stall + M bypass
spin:   j spin
)"));
    out.push_back(kernel_only("load_use_stall_rt", R"(
        addiu $1, $0, 64
        addiu $2, $0, 77
        sw $2, 4($1)
        lw $3, 4($1)
        addu $4, $2, $3      # consumer uses load in rt slot
spin:   j spin
)"));
    out.push_back(kernel_only("load_no_stall_gap", R"(
        addiu $1, $0, 64
        addiu $2, $0, 31
        sw $2, 8($1)
        lw $3, 8($1)
        addiu $9, $0, 1      # one-instruction gap: M->EX bypass
        addu $4, $3, $3
spin:   j spin
)"));
    out.push_back(kernel_only("store_after_load", R"(
        addiu $1, $0, 64
        addiu $2, $0, 0x123
        sw $2, 0($1)
        lw $3, 0($1)
        sw $3, 4($1)         # store data from a fresh load
        lw $4, 4($1)
spin:   j spin
)"));
    out.push_back(kernel_only("store_value_bypass", R"(
        addiu $1, $0, 96
        addiu $2, $0, 11
        addu $3, $2, $2      # value produced right before the store
        sw $3, 0($1)
        lw $4, 0($1)
spin:   j spin
)"));
    out.push_back(kernel_only("back_to_back_loads", R"(
        addiu $1, $0, 128
        addiu $2, $0, 1
        sw $2, 0($1)
        addiu $2, $0, 2
        sw $2, 4($1)
        lw $3, 0($1)
        lw $4, 4($1)
        addu $5, $3, $4
spin:   j spin
)"));
    out.push_back(kernel_only("jr_after_load_stall", R"(
        addiu $1, $0, 64
        addiu $2, $0, ret_here
        sw $2, 0($1)
        lw $3, 0($1)
        jr $3                # jr consumes a just-loaded value
        addiu $9, $0, 99     # squashed
ret_here: addiu $4, $0, 42
spin:   j spin
)"));

    // ---------------- control flow ----------------
    out.push_back(kernel_only("beq_taken", R"(
        addiu $1, $0, 4
        addiu $2, $0, 4
        beq $1, $2, target
        addiu $3, $0, 111    # squashed
        addiu $4, $0, 222    # squashed
target: addiu $5, $0, 55
spin:   j spin
)"));
    out.push_back(kernel_only("beq_not_taken", R"(
        addiu $1, $0, 4
        addiu $2, $0, 5
        beq $1, $2, target
        addiu $3, $0, 111    # executes
target: addiu $5, $0, 55
spin:   j spin
)"));
    out.push_back(kernel_only("bne_taken", R"(
        addiu $1, $0, 4
        addiu $2, $0, 5
        bne $1, $2, target
        addiu $3, $0, 111
target: addiu $5, $0, 55
spin:   j spin
)"));
    out.push_back(kernel_only("branch_on_bypassed_value", R"(
        addiu $1, $0, 10
        addiu $2, $1, 0      # value bypassed into the branch compare
        beq $1, $2, good
        addiu $3, $0, 1
good:   addiu $4, $0, 77
spin:   j spin
)"));
    out.push_back(kernel_only("loop_countdown", R"(
        addiu $1, $0, 5
        addiu $2, $0, 0
loop:   addu $2, $2, $1
        addiu $1, $1, -1
        bne $1, $0, loop
        addiu $3, $0, 1
spin:   j spin
)"));
    out.push_back(kernel_only("jump_and_link", R"(
        addiu $1, $0, 1
        jal func
        addiu $2, $0, 2      # executes after return
spin:   j spin
func:   addiu $3, $0, 3
        jr $31
)"));
    out.push_back(kernel_only("nested_calls", R"(
        jal f1
        addiu $10, $0, 1
spin:   j spin
f1:     addu $20, $31, $0    # save ra
        jal f2
        addu $31, $20, $0    # restore ra
        jr $31
f2:     addiu $11, $0, 2
        jr $31
)"));
    out.push_back(kernel_only("branch_back_to_back", R"(
        addiu $1, $0, 1
        addiu $2, $0, 2
        bne $1, $2, l1
        addiu $9, $0, 9
l1:     bne $1, $2, l2
        addiu $9, $0, 10
l2:     beq $1, $1, l3
        addiu $9, $0, 11
l3:     addiu $3, $0, 3
spin:   j spin
)"));
    out.push_back(kernel_only("jump_chain", R"(
        j a
        addiu $9, $0, 1
a:      j b
        addiu $9, $0, 2
b:      j c
        addiu $9, $0, 3
c:      addiu $1, $0, 42
spin:   j spin
)"));
    out.push_back(kernel_only("branch_after_jump_target", R"(
        addiu $1, $0, 7
        j t
        addiu $9, $0, 1
t:      beq $1, $1, u
        addiu $9, $0, 2
u:      addiu $2, $0, 8
spin:   j spin
)"));

    // ---------------- memory ----------------
    out.push_back(kernel_only("mem_word_sweep", R"(
        addiu $1, $0, 0
        addiu $2, $0, 0x10
        sw $2, 0($1)
        sw $2, 4($1)
        sw $2, 8($1)
        addiu $2, $2, 1
        sw $2, 12($1)
        lw $3, 12($1)
        lw $4, 0($1)
spin:   j spin
)"));
    out.push_back(kernel_only("mem_negative_offset", R"(
        addiu $1, $0, 32
        addiu $2, $0, 0xAB
        sw $2, -4($1)        # address 28
        lw $3, -4($1)
        lw $4, 28($0)
spin:   j spin
)"));
    out.push_back(kernel_only("mem_overwrite", R"(
        addiu $1, $0, 200
        addiu $2, $0, 1
        sw $2, 0($1)
        addiu $2, $0, 2
        sw $2, 0($1)
        lw $3, 0($1)
spin:   j spin
)"));
    out.push_back(kernel_only("mem_addr_from_alu", R"(
        addiu $1, $0, 25
        addiu $2, $0, 7
        addu $3, $1, $2      # 32
        sll $3, $3, 2        # 128
        addiu $4, $0, 0x99
        sw $4, 0($3)
        lw $5, 0($3)
spin:   j spin
)"));

    // ---------------- MMIO ring network ----------------
    {
        TestVector v = kernel_only("mmio_net_out_kernel", R"(
        addiu $1, $0, 0x3FC
        addiu $2, $0, 0x5A
        sw $2, 0($1)         # kernel writes the ring output register
spin:   j spin
)");
        out.push_back(v);
    }
    {
        TestVector v = directed("mmio_net_in_user", R"(
        addiu $1, $0, 0x3F8
        lw $2, 0($1)         # user reads the ring input
        addiu $3, $0, 0x3FC
        sw $2, 0($3)         # and echoes it to the ring output
spin:   j spin
)");
        v.net_in = 0xC0FFEE;
        out.push_back(v);
    }
    {
        TestVector v = directed("mmio_user_roundtrip", R"(
        addiu $1, $0, 0x3F8
        lw $2, 0($1)
        addiu $2, $2, 1
        addiu $3, $0, 0x3FC
        sw $2, 0($3)
spin:   j spin
)");
        v.net_in = 41;
        out.push_back(v);
    }
    out.push_back(kernel_only("mmio_kernel_reads_own_bank", R"(
        addiu $1, $0, 0x3F8
        addiu $2, $0, 0x77
        sw $2, 0($1)         # kernel store goes to dmem_k[0xFE]
        lw $3, 0($1)         # kernel load reads dmem_k, not net_in
spin:   j spin
)"));

    // ---------------- privilege switches ----------------
    out.push_back(directed("syscall_basic", R"(
        addiu $4, $0, 0x11   # arg0 (endorsed across the switch)
        addiu $5, $0, 0x22   # arg1
        addiu $8, $0, 0x33   # clobbered by the clear
        syscall
spin:   j spin
)", R"(
        sysret               # boot: drop to user
boot:   j boot
        .org 0x200
        # handler: observe the endorsed args, leave a kernel marker
        addu $9, $4, $5      # 0x33
        addiu $10, $0, 0x40
        sw $9, 0($10)        # kernel bank keeps the sum
khalt:  j khalt
)"));
    out.push_back(directed("syscall_clears_gprs", R"(
        addiu $1, $0, 1
        addiu $2, $0, 2
        addiu $3, $0, 3
        addiu $4, $0, 4
        addiu $5, $0, 5
        addiu $6, $0, 6
        addiu $31, $0, 31
        syscall
spin:   j spin
)", R"(
        sysret
boot:   j boot
        .org 0x200
        # all GPRs except $4/$5 must now be zero
        addu $8, $1, $2
        addu $8, $8, $3
        addu $8, $8, $6
        addu $8, $8, $31     # still zero
        addu $9, $4, $5      # 9
khalt:  j khalt
)"));
    out.push_back(directed("syscall_then_sysret", R"(
        addiu $4, $0, 7
        syscall
        addu $2, $4, $4      # resumes here after sysret ($4 preserved: kernel left it)
        addiu $3, $0, 9
spin:   j spin
)", R"(
        sysret
boot:   j boot
        .org 0x200
        sysret               # immediately back to user (epc)
khalt:  j khalt
)"));
    out.push_back(directed("double_syscall", R"(
        addiu $4, $0, 1
        syscall
        addiu $4, $4, 1      # $4 preserved both ways
        syscall
        addu $6, $4, $4
spin:   j spin
)", R"(
        sysret
boot:   j boot
        .org 0x200
        sysret
khalt:  j khalt
)"));
    out.push_back(directed("syscall_in_branch_shadow", R"(
        addiu $1, $0, 1
        beq $1, $0, skip     # not taken
        syscall
skip:   addiu $2, $0, 5
spin:   j spin
)", R"(
        sysret
boot:   j boot
        .org 0x200
        sysret
khalt:  j khalt
)"));
    out.push_back(directed("syscall_right_after_branch", R"(
        addiu $1, $0, 1
        bne $1, $0, go
        addiu $9, $0, 1
go:     syscall
        addiu $2, $0, 2
spin:   j spin
)", R"(
        sysret
boot:   j boot
        .org 0x200
        sysret
khalt:  j khalt
)"));
    out.push_back(kernel_only("syscall_in_kernel_is_nop", R"(
        addiu $1, $0, 5
        syscall              # already kernel: no effect
        addiu $2, $0, 6
spin:   j spin
)"));
    out.push_back(directed("sysret_in_user_is_nop", R"(
        addiu $1, $0, 5
        sysret               # user mode: no effect
        addiu $2, $0, 6
spin:   j spin
)"));
    out.push_back(directed("kernel_work_between_switches", R"(
        addiu $4, $0, 3
        addiu $5, $0, 4
        syscall
        addu $7, $4, $5      # after return
spin:   j spin
)", R"(
        sysret
boot:   j boot
        .org 0x200
        addu $8, $4, $5
        sll $8, $8, 2
        addiu $9, $0, 0x50
        sw $8, 0($9)
        lw $10, 0($9)
        sysret
khalt:  j khalt
)"));
    out.push_back(directed("user_mem_survives_syscall", R"(
        addiu $1, $0, 100
        addiu $2, $0, 0xAA
        sw $2, 0($1)         # user bank
        syscall
        lw $3, 100($0)       # wait: address 100 word -> dmem_u survives
spin:   j spin
)", R"(
        sysret
boot:   j boot
        .org 0x200
        sysret
khalt:  j khalt
)"));
    out.push_back(directed("syscall_pipeline_squash", R"(
        addiu $4, $0, 2
        syscall
        addiu $6, $0, 0x66   # must execute exactly once after return
        addiu $7, $0, 0x77
spin:   j spin
)", R"(
        sysret
boot:   j boot
        .org 0x200
        addiu $8, $0, 1
        sysret
khalt:  j khalt
)"));
}

/// Constrained-random straight-line programs (always terminate: no
/// backward control flow; forward branches only).
std::string random_program(std::mt19937_64& rng, bool with_syscall) {
    std::ostringstream os;
    std::uniform_int_distribution<int> op_pick(0, 9);
    std::uniform_int_distribution<int> reg_pick(1, 15);
    std::uniform_int_distribution<int> imm_pick(-256, 255);
    std::uniform_int_distribution<int> mem_pick(0, 63);
    std::uniform_int_distribution<int> sh_pick(0, 31);
    int len = 12 + static_cast<int>(rng() % 20);
    int label_id = 0;
    for (int i = 0; i < len; ++i) {
        int rd = reg_pick(rng), ra = reg_pick(rng), rb = reg_pick(rng);
        switch (op_pick(rng)) {
        case 0:
            os << "  addiu $" << rd << ", $" << ra << ", " << imm_pick(rng)
               << "\n";
            break;
        case 1:
            os << "  addu $" << rd << ", $" << ra << ", $" << rb << "\n";
            break;
        case 2:
            os << "  subu $" << rd << ", $" << ra << ", $" << rb << "\n";
            break;
        case 3:
            os << "  xor $" << rd << ", $" << ra << ", $" << rb << "\n";
            break;
        case 4:
            os << "  slt $" << rd << ", $" << ra << ", $" << rb << "\n";
            break;
        case 5:
            os << "  sll $" << rd << ", $" << ra << ", " << sh_pick(rng)
               << "\n";
            break;
        case 6:
            os << "  sw $" << ra << ", " << (mem_pick(rng) * 4) << "($0)\n";
            break;
        case 7:
            os << "  lw $" << rd << ", " << (mem_pick(rng) * 4) << "($0)\n";
            break;
        case 8: {
            // Forward branch over one instruction.
            int l = label_id++;
            os << "  " << ((rng() & 1) ? "beq" : "bne") << " $" << ra
               << ", $" << rb << ", L" << l << "\n";
            os << "  addiu $" << rd << ", $" << rd << ", 1\n";
            os << "L" << l << ":\n";
            break;
        }
        case 9:
            if (with_syscall && (rng() % 4 == 0))
                os << "  syscall\n";
            else
                os << "  ori $" << rd << ", $" << ra << ", "
                   << (rng() & 0xFFFF) << "\n";
            break;
        }
    }
    os << "spin: j spin\n";
    return os.str();
}

void add_random(std::vector<TestVector>& out, size_t target_total) {
    std::mt19937_64 rng(0xC0DE2017);
    size_t idx = 0;
    while (out.size() < target_total) {
        bool with_syscall = (idx % 3) == 2;
        TestVector vec;
        vec.name = "random_" + std::to_string(idx);
        vec.user_asm = random_program(rng, with_syscall);
        if (with_syscall) {
            vec.kernel_asm = R"(
        sysret
boot:   j boot
        .org 0x200
        addu $8, $4, $5
        sysret
khalt:  j khalt
)";
        } else {
            vec.kernel_asm = kernel_passthrough();
        }
        vec.net_in = static_cast<uint32_t>(rng());
        out.push_back(std::move(vec));
        ++idx;
    }
}

} // namespace

std::vector<TestVector> functional_test_vectors() {
    std::vector<TestVector> out;
    add_directed(out);
    add_random(out, 166);
    assert(out.size() == 166);
    return out;
}

} // namespace svlc::proc
