#include "proc/isa.hpp"

#include <sstream>

namespace svlc::proc {

uint32_t enc_r(Funct f, uint32_t rd, uint32_t rs, uint32_t rt) {
    return (rs << 21) | (rt << 16) | (rd << 11) | static_cast<uint32_t>(f);
}

uint32_t enc_shift(Funct f, uint32_t rd, uint32_t rt, uint32_t shamt) {
    return (rt << 16) | (rd << 11) | ((shamt & 31) << 6) |
           static_cast<uint32_t>(f);
}

uint32_t enc_i(Opcode op, uint32_t rt, uint32_t rs, uint16_t imm) {
    return (static_cast<uint32_t>(op) << 26) | (rs << 21) | (rt << 16) | imm;
}

uint32_t enc_j(Opcode op, uint32_t target_word) {
    return (static_cast<uint32_t>(op) << 26) | (target_word & 0x03FFFFFF);
}

uint32_t enc_jr(uint32_t rs) {
    return (rs << 21) | static_cast<uint32_t>(Funct::Jr);
}

uint32_t enc_syscall() { return static_cast<uint32_t>(Funct::Syscall); }

uint32_t enc_sysret() {
    return (static_cast<uint32_t>(Opcode::Cop0) << 26) | kEretFunct;
}

std::string disassemble(uint32_t raw) {
    Instr i{raw};
    std::ostringstream os;
    auto r = [](uint32_t n) { return '$' + std::to_string(n); };
    switch (static_cast<Opcode>(i.op())) {
    case Opcode::Special:
        switch (static_cast<Funct>(i.funct())) {
        case Funct::Sll:
            if (raw == 0)
                return "nop";
            os << "sll " << r(i.rd()) << ", " << r(i.rt()) << ", "
               << i.shamt();
            return os.str();
        case Funct::Srl:
            os << "srl " << r(i.rd()) << ", " << r(i.rt()) << ", "
               << i.shamt();
            return os.str();
        case Funct::Jr:
            os << "jr " << r(i.rs());
            return os.str();
        case Funct::Syscall:
            return "syscall";
        case Funct::Addu:
            os << "addu";
            break;
        case Funct::Subu:
            os << "subu";
            break;
        case Funct::And:
            os << "and";
            break;
        case Funct::Or:
            os << "or";
            break;
        case Funct::Xor:
            os << "xor";
            break;
        case Funct::Nor:
            os << "nor";
            break;
        case Funct::Slt:
            os << "slt";
            break;
        case Funct::Sltu:
            os << "sltu";
            break;
        default:
            return "<unknown R-type>";
        }
        os << " " << r(i.rd()) << ", " << r(i.rs()) << ", " << r(i.rt());
        return os.str();
    case Opcode::J:
        os << "j 0x" << std::hex << (i.target26() << 2);
        return os.str();
    case Opcode::Jal:
        os << "jal 0x" << std::hex << (i.target26() << 2);
        return os.str();
    case Opcode::Beq:
        os << "beq " << r(i.rs()) << ", " << r(i.rt()) << ", "
           << static_cast<int16_t>(i.imm16());
        return os.str();
    case Opcode::Bne:
        os << "bne " << r(i.rs()) << ", " << r(i.rt()) << ", "
           << static_cast<int16_t>(i.imm16());
        return os.str();
    case Opcode::Addiu:
        os << "addiu " << r(i.rt()) << ", " << r(i.rs()) << ", "
           << static_cast<int16_t>(i.imm16());
        return os.str();
    case Opcode::Slti:
        os << "slti " << r(i.rt()) << ", " << r(i.rs()) << ", "
           << static_cast<int16_t>(i.imm16());
        return os.str();
    case Opcode::Andi:
        os << "andi " << r(i.rt()) << ", " << r(i.rs()) << ", 0x" << std::hex
           << i.imm16();
        return os.str();
    case Opcode::Ori:
        os << "ori " << r(i.rt()) << ", " << r(i.rs()) << ", 0x" << std::hex
           << i.imm16();
        return os.str();
    case Opcode::Xori:
        os << "xori " << r(i.rt()) << ", " << r(i.rs()) << ", 0x" << std::hex
           << i.imm16();
        return os.str();
    case Opcode::Lui:
        os << "lui " << r(i.rt()) << ", 0x" << std::hex << i.imm16();
        return os.str();
    case Opcode::Cop0:
        if (i.funct() == kEretFunct)
            return "sysret";
        return "<unknown cop0>";
    case Opcode::Lw:
        os << "lw " << r(i.rt()) << ", " << static_cast<int16_t>(i.imm16())
           << "(" << r(i.rs()) << ")";
        return os.str();
    case Opcode::Sw:
        os << "sw " << r(i.rt()) << ", " << static_cast<int16_t>(i.imm16())
           << "(" << r(i.rs()) << ")";
        return os.str();
    }
    return "<unknown>";
}

} // namespace svlc::proc
