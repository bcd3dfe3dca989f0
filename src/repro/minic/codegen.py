"""Code generator: mini-C AST -> repro ISA assembly text.

Produces assembler source (see :mod:`repro.isa.assembler`), which keeps the
compiler honest: everything it emits must survive the assembler's checks.

Conventions (see :mod:`repro.abi`):

* expression temporaries: ``r1``–``r6`` (ints) and ``f0``–``f5`` (floats),
  caller-saved; live temporaries are pushed around calls;
* locals: integer locals live in callee-saved ``r7``–``r12`` (declaration
  order, params first), overflowing to frame slots; float locals always live
  in frame slots;
* frame: ``fp`` points at the saved-fp slot; locals at ``fp-8``, ``fp-16``…;
* results: ``r0`` (int) / ``f0`` (float).
"""

from __future__ import annotations

import struct
from typing import Dict, List, Optional, Tuple, Union

from repro import abi
from repro.common.errors import CompileError
from repro.minic import ast_nodes as ast

_INT_TEMPS = ["r1", "r2", "r3", "r4", "r5", "r6"]
# f0 is the float return/first-argument register and must not live in the
# temp pool: a spilled pool temp restored after a call would clobber the
# callee's f0 result.
_FLOAT_TEMPS = ["f1", "f2", "f3", "f4", "f5"]
_CALLEE_SAVED = ["r7", "r8", "r9", "r10", "r11", "r12"]

#: Syscall-wrapper intrinsics: name -> (syscall number, arg count, returns)
_SYSCALL_INTRINSICS = {
    "read": (abi.SYS_READ, 3),
    "write": (abi.SYS_WRITE, 3),
    "close": (abi.SYS_CLOSE, 1),
    "munmap": (abi.SYS_MUNMAP, 2),
    "getpid": (abi.SYS_GETPID, 0),
    "exit": (abi.SYS_EXIT, 1),
    "kill": (abi.SYS_KILL, 2),
    "gettimeofday": (abi.SYS_GETTIMEOFDAY, 0),
    "prctl": (abi.SYS_PRCTL, 2),
    "getrandom": (abi.SYS_GETRANDOM, 2),
    "sigaction": (abi.SYS_SIGACTION, 2),
}

_OTHER_INTRINSICS = frozenset({
    "float", "int", "addr", "peek8", "poke8", "peek64", "poke64",
    "peekf", "pokef", "rdtsc", "cpu_model", "cpuid", "sbrk",
    "mmap_anon", "mmap_file", "open", "print_str",
})


class _Storage:
    """Where a local variable lives."""

    __slots__ = ("kind", "reg", "offset", "is_float")

    def __init__(self, kind: str, is_float: bool, reg: str = "",
                 offset: int = 0):
        self.kind = kind          # 'reg' or 'frame'
        self.reg = reg
        self.offset = offset      # fp-relative, negative
        self.is_float = is_float


class _GlobalInfo:
    __slots__ = ("label", "is_float", "is_array", "size")

    def __init__(self, label: str, is_float: bool, is_array: bool, size: int):
        self.label = label
        self.is_float = is_float
        self.is_array = is_array
        self.size = size


class CodeGenerator:
    def __init__(self, module: ast.Module):
        self._module = module
        self._globals: Dict[str, _GlobalInfo] = {}
        self._functions = {fn.name for fn in module.functions}
        self._strings: Dict[str, Tuple[str, int]] = {}  # literal -> (label, len)
        self._data_lines: List[str] = []
        self._text_lines: List[str] = []
        self._label_counter = 0
        # per-function state
        self._locals: Dict[str, _Storage] = {}
        self._frame_slots = 0
        self._used_callee: List[str] = []
        self._int_free: List[str] = []
        self._float_free: List[str] = []
        self._int_live: List[str] = []
        self._float_live: List[str] = []
        self._loop_stack: List[Tuple[str, str]] = []  # (continue, break)
        self._return_label = ""

    # -- public entry --------------------------------------------------------

    def generate(self) -> str:
        for decl in self._module.globals:
            self._declare_global(decl)
        self._collect_strings()
        self._emit_start()
        for fn in self._module.functions:
            self._gen_function(fn)
        lines = []
        if self._data_lines:
            lines.append(".data")
            lines.extend(self._data_lines)
        lines.append(".text")
        lines.extend(self._text_lines)
        return "\n".join(lines) + "\n"

    # -- data section -----------------------------------------------------------

    def _declare_global(self, decl: ast.GlobalDecl) -> None:
        if decl.name in self._globals:
            raise CompileError(f"duplicate global {decl.name!r}", decl.line)
        label = f"G_{decl.name}"
        size = decl.array_size if decl.array_size is not None else 1
        self._globals[decl.name] = _GlobalInfo(
            label, decl.is_float, decl.array_size is not None, size)
        values = list(decl.init or [])
        if len(values) > size:
            raise CompileError(
                f"initializer too long for {decl.name!r}", decl.line)
        encoded = [self._encode_const(v, decl.is_float) for v in values]
        if encoded:
            self._data_lines.append(
                f"{label}: .word " + ", ".join(str(v) for v in encoded))
            remaining = size - len(encoded)
            if remaining:
                self._data_lines.append(f"    .space {8 * remaining}")
        else:
            self._data_lines.append(f"{label}: .space {8 * size}")

    @staticmethod
    def _encode_const(value: Union[int, float], is_float: bool) -> int:
        if is_float:
            return int.from_bytes(struct.pack("<d", float(value)), "little")
        return int(value)

    def _collect_strings(self) -> None:
        def visit_expr(expr) -> None:
            if isinstance(expr, ast.StrLit):
                self._intern_string(expr.value)
            elif isinstance(expr, ast.Unary):
                visit_expr(expr.operand)
            elif isinstance(expr, ast.Binary):
                visit_expr(expr.left)
                visit_expr(expr.right)
            elif isinstance(expr, ast.Index):
                visit_expr(expr.index)
            elif isinstance(expr, ast.Call):
                for arg in expr.args:
                    visit_expr(arg)

        def visit_stmt(stmt) -> None:
            if isinstance(stmt, ast.VarDecl) and stmt.init is not None:
                visit_expr(stmt.init)
            elif isinstance(stmt, ast.Assign):
                if isinstance(stmt.target, ast.Index):
                    visit_expr(stmt.target.index)
                visit_expr(stmt.value)
            elif isinstance(stmt, ast.If):
                visit_expr(stmt.cond)
                for child in stmt.then_body + stmt.else_body:
                    visit_stmt(child)
            elif isinstance(stmt, ast.While):
                visit_expr(stmt.cond)
                for child in stmt.body:
                    visit_stmt(child)
            elif isinstance(stmt, ast.For):
                if stmt.init:
                    visit_stmt(stmt.init)
                if stmt.cond:
                    visit_expr(stmt.cond)
                if stmt.step:
                    visit_stmt(stmt.step)
                for child in stmt.body:
                    visit_stmt(child)
            elif isinstance(stmt, ast.Return) and stmt.value is not None:
                visit_expr(stmt.value)
            elif isinstance(stmt, ast.ExprStmt):
                visit_expr(stmt.expr)

        for fn in self._module.functions:
            for stmt in fn.body:
                visit_stmt(stmt)
        # Each visitor refers to itself through its closure cell; emptying
        # the cells frees them, this generator and its syntax tree by
        # reference counting instead of at the next cyclic collection.
        del visit_expr, visit_stmt

    def _intern_string(self, text: str) -> Tuple[str, int]:
        if text not in self._strings:
            label = f"S_{len(self._strings)}"
            escaped = (text.replace("\\", "\\\\").replace('"', '\\"')
                       .replace("\n", "\\n").replace("\t", "\\t")
                       .replace("\0", "\\0"))
            self._data_lines.append(f'{label}: .ascii "{escaped}"')
            data = text.encode("utf-8")
            self._data_lines.append(".align 8")
            self._strings[text] = (label, len(data))
        return self._strings[text]

    # -- labels / emission ---------------------------------------------------------

    def _emit(self, line: str) -> None:
        self._text_lines.append(f"    {line}")

    def _emit_label(self, label: str) -> None:
        self._text_lines.append(f"{label}:")

    def _new_label(self, hint: str = "L") -> str:
        self._label_counter += 1
        return f"{hint}_{self._label_counter}"

    def _emit_start(self) -> None:
        if "main" not in self._functions:
            raise CompileError("no 'main' function")
        self._emit_label("_start")
        self._emit("call F_main")
        self._emit("mov r1, r0")
        self._emit(f"li r0, {abi.SYS_EXIT}")
        self._emit("syscall")
        self._emit("halt")

    # -- temporaries -----------------------------------------------------------------

    def _alloc_int(self, line: int) -> str:
        if not self._int_free:
            raise CompileError(
                "integer expression too deep (temp registers exhausted)", line)
        reg = self._int_free.pop(0)
        self._int_live.append(reg)
        return reg

    def _alloc_float(self, line: int) -> str:
        if not self._float_free:
            raise CompileError(
                "float expression too deep (temp registers exhausted)", line)
        reg = self._float_free.pop(0)
        self._float_live.append(reg)
        return reg

    def _free(self, reg: str) -> None:
        if reg in self._int_live:
            self._int_live.remove(reg)
            self._int_free.insert(0, reg)
        elif reg in self._float_live:
            self._float_live.remove(reg)
            self._float_free.insert(0, reg)
        else:
            raise AssertionError(f"freeing non-live temp {reg}")

    def _push(self, reg: str) -> None:
        self._emit("addi sp, sp, -8")
        if reg.startswith("f"):
            self._emit(f"fst {reg}, sp, 0")
        else:
            self._emit(f"st {reg}, sp, 0")

    def _pop(self, reg: str) -> None:
        if reg.startswith("f"):
            self._emit(f"fld {reg}, sp, 0")
        else:
            self._emit(f"ld {reg}, sp, 0")
        self._emit("addi sp, sp, 8")

    # -- functions --------------------------------------------------------------------

    def _gen_function(self, fn: ast.FuncDecl) -> None:
        self._locals = {}
        self._frame_slots = 0
        self._used_callee = []
        self._int_free = list(_INT_TEMPS)
        self._float_free = list(_FLOAT_TEMPS)
        self._int_live = []
        self._float_live = []
        self._loop_stack = []
        self._return_label = self._new_label(f"Ret_{fn.name}")

        if len(fn.params) > 6:
            raise CompileError(f"too many parameters in {fn.name!r}", fn.line)

        self._assign_storage(fn)

        body_lines: List[str] = []
        saved_text = self._text_lines
        self._text_lines = body_lines
        try:
            # Move params from argument registers into their homes.
            int_index, float_index = 1, 0
            for param in fn.params:
                storage = self._locals[param.name]
                if param.is_float:
                    src = f"f{float_index}"
                    float_index += 1
                    self._emit(f"fst {src}, fp, {storage.offset}")
                else:
                    src = f"r{int_index}"
                    int_index += 1
                    if storage.kind == "reg":
                        self._emit(f"mov {storage.reg}, {src}")
                    else:
                        self._emit(f"st {src}, fp, {storage.offset}")
            for stmt in fn.body:
                self._gen_stmt(stmt)
            # Implicit `return 0` falls through.
            self._emit("li r0, 0")
        finally:
            self._text_lines = saved_text

        # Prologue.
        self._emit_label(f"F_{fn.name}")
        self._emit("addi sp, sp, -16")
        self._emit("st lr, sp, 8")
        self._emit("st fp, sp, 0")
        self._emit("mov fp, sp")
        frame_bytes = 8 * self._frame_slots + 8 * len(self._used_callee)
        if frame_bytes:
            self._emit(f"addi sp, sp, -{frame_bytes}")
        for i, reg in enumerate(self._used_callee):
            offset = -8 * self._frame_slots - 8 * (i + 1)
            self._emit(f"st {reg}, fp, {offset}")
        self._text_lines.extend(body_lines)
        # Epilogue.
        self._emit_label(self._return_label)
        for i, reg in enumerate(self._used_callee):
            offset = -8 * self._frame_slots - 8 * (i + 1)
            self._emit(f"ld {reg}, fp, {offset}")
        self._emit("mov sp, fp")
        self._emit("ld fp, sp, 0")
        self._emit("ld lr, sp, 8")
        self._emit("addi sp, sp, 16")
        self._emit("ret")

    def _assign_storage(self, fn: ast.FuncDecl) -> None:
        """Pre-scan declarations so every local has a home before codegen."""
        decls: List[Tuple[str, bool, int]] = [
            (p.name, p.is_float, fn.line) for p in fn.params]

        def scan(stmts) -> None:
            for stmt in stmts:
                if isinstance(stmt, ast.VarDecl):
                    decls.append((stmt.name, stmt.is_float, stmt.line))
                elif isinstance(stmt, ast.If):
                    scan(stmt.then_body)
                    scan(stmt.else_body)
                elif isinstance(stmt, ast.While):
                    scan(stmt.body)
                elif isinstance(stmt, ast.For):
                    if stmt.init:
                        scan([stmt.init])
                    if stmt.step:
                        scan([stmt.step])
                    scan(stmt.body)

        scan(fn.body)
        del scan   # frees the recursive closure (see _collect_strings)
        callee_pool = list(_CALLEE_SAVED)
        param_names = {p.name for p in fn.params}
        for name, is_float, line in decls:
            if name in self._locals:
                raise CompileError(f"duplicate local {name!r}", line)
            # Locals may shadow globals (lookup checks locals first).
            if is_float or not callee_pool:
                self._frame_slots += 1
                self._locals[name] = _Storage(
                    "frame", is_float, offset=-8 * self._frame_slots)
            else:
                reg = callee_pool.pop(0)
                self._used_callee.append(reg)
                self._locals[name] = _Storage("reg", is_float, reg=reg)

    # -- statements -----------------------------------------------------------------------

    def _gen_stmt(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.VarDecl):
            if stmt.init is not None:
                self._gen_assign_to_local(stmt.name, stmt.init, stmt.line)
        elif isinstance(stmt, ast.Assign):
            self._gen_assign(stmt)
        elif isinstance(stmt, ast.If):
            self._gen_if(stmt)
        elif isinstance(stmt, ast.While):
            self._gen_while(stmt)
        elif isinstance(stmt, ast.For):
            self._gen_for(stmt)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                reg, is_float = self._gen_expr(stmt.value)
                if is_float:
                    if reg != "f0":
                        self._emit(f"fmov f0, {reg}")
                else:
                    self._emit(f"mov r0, {reg}")
                self._free(reg)
            else:
                self._emit("li r0, 0")
            self._emit(f"jmp {self._return_label}")
        elif isinstance(stmt, ast.Break):
            if not self._loop_stack:
                raise CompileError("break outside loop", stmt.line)
            self._emit(f"jmp {self._loop_stack[-1][1]}")
        elif isinstance(stmt, ast.Continue):
            if not self._loop_stack:
                raise CompileError("continue outside loop", stmt.line)
            self._emit(f"jmp {self._loop_stack[-1][0]}")
        elif isinstance(stmt, ast.ExprStmt):
            reg, _ = self._gen_expr(stmt.expr)
            self._free(reg)
        else:
            raise CompileError(f"unhandled statement {type(stmt).__name__}")

    def _gen_assign_to_local(self, name: str, value: ast.Expr,
                             line: int) -> None:
        storage = self._locals.get(name)
        if storage is None:
            raise CompileError(f"undeclared variable {name!r}", line)
        reg, is_float = self._gen_expr(value)
        if is_float != storage.is_float:
            raise CompileError(
                f"type mismatch assigning to {name!r} "
                "(use float()/int() to convert)", line)
        if storage.kind == "reg":
            self._emit(f"mov {storage.reg}, {reg}")
        elif storage.is_float:
            self._emit(f"fst {reg}, fp, {storage.offset}")
        else:
            self._emit(f"st {reg}, fp, {storage.offset}")
        self._free(reg)

    def _gen_assign(self, stmt: ast.Assign) -> None:
        target = stmt.target
        if isinstance(target, ast.Var):
            if target.name in self._locals:
                self._gen_assign_to_local(target.name, stmt.value, stmt.line)
                return
            info = self._globals.get(target.name)
            if info is None:
                raise CompileError(
                    f"undeclared variable {target.name!r}", stmt.line)
            if info.is_array:
                raise CompileError(
                    f"cannot assign whole array {target.name!r}", stmt.line)
            reg, is_float = self._gen_expr(stmt.value)
            if is_float != info.is_float:
                raise CompileError(
                    f"type mismatch assigning to {target.name!r}", stmt.line)
            addr = self._alloc_int(stmt.line)
            self._emit(f"la {addr}, {info.label}")
            if info.is_float:
                self._emit(f"fst {reg}, {addr}, 0")
            else:
                self._emit(f"st {reg}, {addr}, 0")
            self._free(addr)
            self._free(reg)
            return
        # Array element.
        info = self._globals.get(target.name)
        if info is None or not info.is_array:
            raise CompileError(f"{target.name!r} is not an array", stmt.line)
        addr = self._gen_element_address(info, target.index, stmt.line)
        reg, is_float = self._gen_expr(stmt.value)
        if is_float != info.is_float:
            raise CompileError(
                f"type mismatch storing to {target.name!r}[]", stmt.line)
        if info.is_float:
            self._emit(f"fst {reg}, {addr}, 0")
        else:
            self._emit(f"st {reg}, {addr}, 0")
        self._free(reg)
        self._free(addr)

    def _gen_element_address(self, info: _GlobalInfo, index: ast.Expr,
                             line: int) -> str:
        idx_reg, idx_float = self._gen_expr(index)
        if idx_float:
            raise CompileError("array index must be an integer", line)
        self._emit(f"slli {idx_reg}, {idx_reg}, 3")
        addr = self._alloc_int(line)
        self._emit(f"la {addr}, {info.label}")
        self._emit(f"add {addr}, {addr}, {idx_reg}")
        self._free(idx_reg)
        return addr

    def _gen_cond_branch_false(self, cond: ast.Expr, target: str,
                               line: int) -> None:
        reg, is_float = self._gen_expr(cond)
        if is_float:
            raise CompileError("condition must be an integer", line)
        zero = self._alloc_int(line)
        self._emit(f"li {zero}, 0")
        self._emit(f"beq {reg}, {zero}, {target}")
        self._free(zero)
        self._free(reg)

    def _gen_if(self, stmt: ast.If) -> None:
        else_label = self._new_label("Else")
        end_label = self._new_label("Endif")
        self._gen_cond_branch_false(
            stmt.cond, else_label if stmt.else_body else end_label, stmt.line)
        for child in stmt.then_body:
            self._gen_stmt(child)
        if stmt.else_body:
            self._emit(f"jmp {end_label}")
            self._emit_label(else_label)
            for child in stmt.else_body:
                self._gen_stmt(child)
        self._emit_label(end_label)

    def _gen_while(self, stmt: ast.While) -> None:
        head = self._new_label("While")
        end = self._new_label("Endwhile")
        self._emit_label(head)
        self._gen_cond_branch_false(stmt.cond, end, stmt.line)
        self._loop_stack.append((head, end))
        for child in stmt.body:
            self._gen_stmt(child)
        self._loop_stack.pop()
        self._emit(f"jmp {head}")
        self._emit_label(end)

    def _gen_for(self, stmt: ast.For) -> None:
        head = self._new_label("For")
        step_label = self._new_label("Forstep")
        end = self._new_label("Endfor")
        if stmt.init:
            self._gen_stmt(stmt.init)
        self._emit_label(head)
        if stmt.cond is not None:
            self._gen_cond_branch_false(stmt.cond, end, stmt.line)
        self._loop_stack.append((step_label, end))
        for child in stmt.body:
            self._gen_stmt(child)
        self._loop_stack.pop()
        self._emit_label(step_label)
        if stmt.step:
            self._gen_stmt(stmt.step)
        self._emit(f"jmp {head}")
        self._emit_label(end)

    # -- expressions ---------------------------------------------------------------------------

    def _gen_expr(self, expr: ast.Expr) -> Tuple[str, bool]:
        """Generate code; returns (temp register, is_float)."""
        if isinstance(expr, ast.IntLit):
            reg = self._alloc_int(expr.line)
            self._emit(f"li {reg}, {expr.value}")
            return reg, False
        if isinstance(expr, ast.FloatLit):
            reg = self._alloc_float(expr.line)
            self._emit(f"fli {reg}, {expr.value!r}")
            return reg, True
        if isinstance(expr, ast.StrLit):
            label, _ = self._intern_string(expr.value)
            reg = self._alloc_int(expr.line)
            self._emit(f"la {reg}, {label}")
            return reg, False
        if isinstance(expr, ast.Var):
            return self._gen_var(expr)
        if isinstance(expr, ast.Index):
            return self._gen_index(expr)
        if isinstance(expr, ast.Unary):
            return self._gen_unary(expr)
        if isinstance(expr, ast.Binary):
            return self._gen_binary(expr)
        if isinstance(expr, ast.Call):
            return self._gen_call(expr)
        raise CompileError(f"unhandled expression {type(expr).__name__}")

    def _gen_var(self, expr: ast.Var) -> Tuple[str, bool]:
        storage = self._locals.get(expr.name)
        if storage is not None:
            if storage.is_float:
                reg = self._alloc_float(expr.line)
                self._emit(f"fld {reg}, fp, {storage.offset}")
                return reg, True
            reg = self._alloc_int(expr.line)
            if storage.kind == "reg":
                self._emit(f"mov {reg}, {storage.reg}")
            else:
                self._emit(f"ld {reg}, fp, {storage.offset}")
            return reg, False
        info = self._globals.get(expr.name)
        if info is None:
            raise CompileError(f"undeclared variable {expr.name!r}", expr.line)
        if info.is_array:
            # Bare array name evaluates to its base address.
            reg = self._alloc_int(expr.line)
            self._emit(f"la {reg}, {info.label}")
            return reg, False
        addr = self._alloc_int(expr.line)
        self._emit(f"la {addr}, {info.label}")
        if info.is_float:
            reg = self._alloc_float(expr.line)
            self._emit(f"fld {reg}, {addr}, 0")
            self._free(addr)
            return reg, True
        self._emit(f"ld {addr}, {addr}, 0")
        return addr, False

    def _gen_index(self, expr: ast.Index) -> Tuple[str, bool]:
        info = self._globals.get(expr.name)
        if info is None or not info.is_array:
            raise CompileError(f"{expr.name!r} is not an array", expr.line)
        addr = self._gen_element_address(info, expr.index, expr.line)
        if info.is_float:
            reg = self._alloc_float(expr.line)
            self._emit(f"fld {reg}, {addr}, 0")
            self._free(addr)
            return reg, True
        self._emit(f"ld {addr}, {addr}, 0")
        return addr, False

    def _gen_unary(self, expr: ast.Unary) -> Tuple[str, bool]:
        reg, is_float = self._gen_expr(expr.operand)
        if expr.op == "-":
            if is_float:
                zero = self._alloc_float(expr.line)
                self._emit(f"fli {zero}, 0.0")
                self._emit(f"fsub {reg}, {zero}, {reg}")
                self._free(zero)
            else:
                zero = self._alloc_int(expr.line)
                self._emit(f"li {zero}, 0")
                self._emit(f"sub {reg}, {zero}, {reg}")
                self._free(zero)
            return reg, is_float
        if is_float:
            raise CompileError(f"operator {expr.op!r} needs an integer",
                               expr.line)
        if expr.op == "!":
            zero = self._alloc_int(expr.line)
            self._emit(f"li {zero}, 0")
            self._emit(f"seq {reg}, {reg}, {zero}")
            self._free(zero)
            return reg, False
        if expr.op == "~":
            self._emit(f"xori {reg}, {reg}, -1")
            return reg, False
        raise CompileError(f"unknown unary operator {expr.op!r}", expr.line)

    _INT_BINOPS = {"+": "add", "-": "sub", "*": "mul", "/": "div",
                   "%": "mod", "&": "and", "|": "or", "^": "xor",
                   "<<": "sll", ">>": "sra"}
    _INT_CMPS = {"<": ("slt", False), "<=": ("sle", False),
                 ">": ("slt", True), ">=": ("sle", True),
                 "==": ("seq", False), "!=": ("sne", False)}
    _FLOAT_BINOPS = {"+": "fadd", "-": "fsub", "*": "fmul", "/": "fdiv"}
    _FLOAT_CMPS = {"<": ("flt", False), "<=": ("fle", False),
                   ">": ("flt", True), ">=": ("fle", True),
                   "==": ("feq", False)}

    def _gen_binary(self, expr: ast.Binary) -> Tuple[str, bool]:
        if expr.op in ("&&", "||"):
            return self._gen_logical(expr)
        left, left_float = self._gen_expr(expr.left)
        right, right_float = self._gen_expr(expr.right)
        if left_float != right_float:
            raise CompileError(
                "mixed int/float operands (use float()/int())", expr.line)
        if left_float:
            if expr.op in self._FLOAT_BINOPS:
                self._emit(f"{self._FLOAT_BINOPS[expr.op]} {left}, {left}, {right}")
                self._free(right)
                return left, True
            if expr.op == "!=":
                out = self._alloc_int(expr.line)
                self._emit(f"feq {out}, {left}, {right}")
                self._emit(f"xori {out}, {out}, 1")
                self._free(left)
                self._free(right)
                return out, False
            if expr.op in self._FLOAT_CMPS:
                mnemonic, swap = self._FLOAT_CMPS[expr.op]
                out = self._alloc_int(expr.line)
                a, b = (right, left) if swap else (left, right)
                self._emit(f"{mnemonic} {out}, {a}, {b}")
                self._free(left)
                self._free(right)
                return out, False
            raise CompileError(
                f"operator {expr.op!r} not supported on floats", expr.line)
        if expr.op in self._INT_BINOPS:
            self._emit(f"{self._INT_BINOPS[expr.op]} {left}, {left}, {right}")
            self._free(right)
            return left, False
        if expr.op in self._INT_CMPS:
            mnemonic, swap = self._INT_CMPS[expr.op]
            a, b = (right, left) if swap else (left, right)
            self._emit(f"{mnemonic} {left}, {a}, {b}")
            self._free(right)
            return left, False
        raise CompileError(f"unknown operator {expr.op!r}", expr.line)

    def _gen_logical(self, expr: ast.Binary) -> Tuple[str, bool]:
        result, is_float = self._gen_expr(expr.left)
        if is_float:
            raise CompileError("logical operands must be integers", expr.line)
        zero = self._alloc_int(expr.line)
        self._emit(f"li {zero}, 0")
        end = self._new_label("Lend")
        if expr.op == "&&":
            short = self._new_label("Land")
            self._emit(f"beq {result}, {zero}, {short}")
            right, right_float = self._gen_expr(expr.right)
            if right_float:
                raise CompileError("logical operands must be integers",
                                   expr.line)
            self._emit(f"sne {result}, {right}, {zero}")
            self._free(right)
            self._emit(f"jmp {end}")
            self._emit_label(short)
            self._emit(f"li {result}, 0")
        else:
            short = self._new_label("Lor")
            self._emit(f"bne {result}, {zero}, {short}")
            right, right_float = self._gen_expr(expr.right)
            if right_float:
                raise CompileError("logical operands must be integers",
                                   expr.line)
            self._emit(f"sne {result}, {right}, {zero}")
            self._free(right)
            self._emit(f"jmp {end}")
            self._emit_label(short)
            self._emit(f"li {result}, 1")
        self._emit_label(end)
        self._free(zero)
        return result, False

    # -- calls and intrinsics -----------------------------------------------------------------

    def _gen_call(self, expr: ast.Call) -> Tuple[str, bool]:
        name = expr.name
        if name == "float" or name == "int":
            return self._gen_conversion(expr)
        if name == "addr":
            return self._gen_addr(expr)
        if name in ("peek8", "peek64", "peekf", "poke8", "poke64", "pokef"):
            return self._gen_peek_poke(expr)
        if name in ("rdtsc", "cpu_model", "cpuid"):
            return self._gen_nondet(expr)
        if name == "sbrk":
            return self._gen_sbrk(expr)
        if name in ("mmap_anon", "mmap_file"):
            return self._gen_mmap(expr)
        if name == "open":
            return self._gen_open(expr)
        if name == "print_str":
            return self._gen_print_str(expr)
        if name in _SYSCALL_INTRINSICS:
            number, argc = _SYSCALL_INTRINSICS[name]
            if len(expr.args) != argc:
                raise CompileError(
                    f"{name} expects {argc} arguments", expr.line)
            return self._gen_syscall(number, expr.args, expr.line)
        if name not in self._functions:
            raise CompileError(f"call to undefined function {name!r}",
                               expr.line)
        return self._gen_user_call(expr)

    def _spill_live_temps(self) -> List[str]:
        spilled = list(self._int_live) + list(self._float_live)
        for reg in spilled:
            self._push(reg)
        for reg in list(self._int_live):
            self._int_live.remove(reg)
            self._int_free.append(reg)
        for reg in list(self._float_live):
            self._float_live.remove(reg)
            self._float_free.append(reg)
        return spilled

    def _restore_live_temps(self, spilled: List[str]) -> None:
        for reg in reversed(spilled):
            self._pop(reg)
        for reg in spilled:
            if reg.startswith("f"):
                self._float_free.remove(reg)
                self._float_live.append(reg)
            else:
                self._int_free.remove(reg)
                self._int_live.append(reg)

    def _eval_args_to_stack(self, args, line: int) -> List[bool]:
        """Evaluate arguments left-to-right, pushing each; returns is_float
        per argument."""
        kinds: List[bool] = []
        for arg in args:
            reg, is_float = self._gen_expr(arg)
            self._push(reg)
            self._free(reg)
            kinds.append(is_float)
        return kinds

    def _gen_syscall(self, number: int, args, line: int) -> Tuple[str, bool]:
        spilled = self._spill_live_temps()
        kinds = self._eval_args_to_stack(args, line)
        if any(kinds):
            raise CompileError("syscall arguments must be integers", line)
        for position in range(len(args) - 1, -1, -1):
            self._pop(f"r{position + 1}")
        self._emit(f"li r0, {number}")
        self._emit("syscall")
        self._restore_live_temps(spilled)
        result = self._alloc_int(line)
        self._emit(f"mov {result}, r0")
        return result, False

    def _gen_user_call(self, expr: ast.Call) -> Tuple[str, bool]:
        spilled = self._spill_live_temps()
        kinds = self._eval_args_to_stack(expr.args, expr.line)
        int_regs = [f"r{i}" for i in range(1, 7)]
        float_regs = [f"f{i}" for i in range(6)]
        targets = []
        int_index = float_index = 0
        for is_float in kinds:
            if is_float:
                targets.append(float_regs[float_index])
                float_index += 1
            else:
                targets.append(int_regs[int_index])
                int_index += 1
        for target in reversed(targets):
            self._pop(target)
        self._emit(f"call F_{expr.name}")
        self._restore_live_temps(spilled)
        # Results come back in r0/f0; we cannot know the callee's return
        # type, so calls are int-valued unless wrapped in float().
        result = self._alloc_int(expr.line)
        self._emit(f"mov {result}, r0")
        return result, False

    def _gen_conversion(self, expr: ast.Call) -> Tuple[str, bool]:
        if len(expr.args) != 1:
            raise CompileError(f"{expr.name} expects one argument", expr.line)
        # float(call(...)) converts the callee's f0 result: special-case a
        # direct user call so float-returning functions are usable.
        if (expr.name == "float" and isinstance(expr.args[0], ast.Call)
                and expr.args[0].name in self._functions):
            inner = self._gen_user_call(expr.args[0])
            self._free(inner[0])
            reg = self._alloc_float(expr.line)
            self._emit(f"fmov {reg}, f0")
            return reg, True
        operand, is_float = self._gen_expr(expr.args[0])
        if expr.name == "float":
            if is_float:
                return operand, True
            reg = self._alloc_float(expr.line)
            self._emit(f"fcvt {reg}, {operand}")
            self._free(operand)
            return reg, True
        if not is_float:
            return operand, False
        reg = self._alloc_int(expr.line)
        self._emit(f"icvt {reg}, {operand}")
        self._free(operand)
        return reg, False

    def _gen_addr(self, expr: ast.Call) -> Tuple[str, bool]:
        if len(expr.args) != 1 or not isinstance(expr.args[0], ast.Var):
            raise CompileError("addr() expects a global name", expr.line)
        info = self._globals.get(expr.args[0].name)
        if info is None:
            raise CompileError(
                f"addr() of unknown global {expr.args[0].name!r}", expr.line)
        reg = self._alloc_int(expr.line)
        self._emit(f"la {reg}, {info.label}")
        return reg, False

    def _gen_peek_poke(self, expr: ast.Call) -> Tuple[str, bool]:
        name = expr.name
        if name.startswith("peek"):
            if len(expr.args) != 1:
                raise CompileError(f"{name} expects one argument", expr.line)
            addr, is_float = self._gen_expr(expr.args[0])
            if is_float:
                raise CompileError("address must be an integer", expr.line)
            if name == "peek8":
                self._emit(f"ldb {addr}, {addr}, 0")
                return addr, False
            if name == "peek64":
                self._emit(f"ld {addr}, {addr}, 0")
                return addr, False
            reg = self._alloc_float(expr.line)
            self._emit(f"fld {reg}, {addr}, 0")
            self._free(addr)
            return reg, True
        if len(expr.args) != 2:
            raise CompileError(f"{name} expects two arguments", expr.line)
        addr, addr_float = self._gen_expr(expr.args[0])
        value, value_float = self._gen_expr(expr.args[1])
        if addr_float:
            raise CompileError("address must be an integer", expr.line)
        if name == "pokef":
            if not value_float:
                raise CompileError("pokef needs a float value", expr.line)
            self._emit(f"fst {value}, {addr}, 0")
        else:
            if value_float:
                raise CompileError(f"{name} needs an integer value", expr.line)
            mnemonic = "stb" if name == "poke8" else "st"
            self._emit(f"{mnemonic} {value}, {addr}, 0")
        self._free(value)
        self._emit(f"li {addr}, 0")
        return addr, False

    def _gen_nondet(self, expr: ast.Call) -> Tuple[str, bool]:
        if expr.args:
            raise CompileError(f"{expr.name} takes no arguments", expr.line)
        reg = self._alloc_int(expr.line)
        if expr.name == "rdtsc":
            self._emit(f"rdtsc {reg}")
        elif expr.name == "cpu_model":
            self._emit(f"mrs {reg}, 0")
        else:
            self._emit(f"cpuid {reg}")
        return reg, False

    def _gen_sbrk(self, expr: ast.Call) -> Tuple[str, bool]:
        if len(expr.args) != 1:
            raise CompileError("sbrk expects one argument", expr.line)
        spilled = self._spill_live_temps()
        self._eval_args_to_stack(expr.args, expr.line)
        self._pop("r2")  # requested size
        self._emit("li r1, 0")
        self._emit(f"li r0, {abi.SYS_BRK}")
        self._emit("syscall")           # r0 = current brk
        self._emit("mov r3, r0")        # old brk
        self._emit("add r1, r0, r2")
        self._emit(f"li r0, {abi.SYS_BRK}")
        self._emit("syscall")
        self._restore_live_temps(spilled)
        result = self._alloc_int(expr.line)
        self._emit("mov r0, r3")
        self._emit(f"mov {result}, r3")
        return result, False

    def _gen_mmap(self, expr: ast.Call) -> Tuple[str, bool]:
        anon = expr.name == "mmap_anon"
        expected = 1 if anon else 2
        if len(expr.args) != expected:
            raise CompileError(
                f"{expr.name} expects {expected} arguments", expr.line)
        spilled = self._spill_live_temps()
        self._eval_args_to_stack(expr.args, expr.line)
        if anon:
            self._pop("r2")  # length
            self._emit("li r5, -1")
            flags = abi.MAP_PRIVATE | abi.MAP_ANONYMOUS
        else:
            self._pop("r2")  # length
            self._pop("r5")  # fd
            flags = abi.MAP_PRIVATE
        self._emit("li r1, 0")
        self._emit(f"li r3, {abi.PROT_READ | abi.PROT_WRITE}")
        self._emit(f"li r4, {flags}")
        self._emit(f"li r0, {abi.SYS_MMAP}")
        self._emit("syscall")
        self._restore_live_temps(spilled)
        result = self._alloc_int(expr.line)
        self._emit(f"mov {result}, r0")
        return result, False

    def _gen_open(self, expr: ast.Call) -> Tuple[str, bool]:
        if len(expr.args) != 1 or not isinstance(expr.args[0], ast.StrLit):
            raise CompileError(
                "open() expects a string-literal path", expr.line)
        label, length = self._intern_string(expr.args[0].value)
        spilled = self._spill_live_temps()
        self._emit(f"la r1, {label}")
        self._emit(f"li r2, {length}")
        self._emit(f"li r0, {abi.SYS_OPEN}")
        self._emit("syscall")
        self._restore_live_temps(spilled)
        result = self._alloc_int(expr.line)
        self._emit(f"mov {result}, r0")
        return result, False

    def _gen_print_str(self, expr: ast.Call) -> Tuple[str, bool]:
        if len(expr.args) != 1 or not isinstance(expr.args[0], ast.StrLit):
            raise CompileError(
                "print_str() expects a string literal", expr.line)
        label, length = self._intern_string(expr.args[0].value)
        spilled = self._spill_live_temps()
        self._emit(f"li r1, {abi.STDOUT}")
        self._emit(f"la r2, {label}")
        self._emit(f"li r3, {length}")
        self._emit(f"li r0, {abi.SYS_WRITE}")
        self._emit("syscall")
        self._restore_live_temps(spilled)
        result = self._alloc_int(expr.line)
        self._emit(f"mov {result}, r0")
        return result, False


def generate(module: ast.Module) -> str:
    return CodeGenerator(module).generate()
