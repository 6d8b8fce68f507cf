package ir

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"unicode"
)

// Parse reads the textual .nir format produced by Print and reconstructs a
// module. The format is line oriented:
//
//	func @name(i64, f64) {
//	entry:
//	  r3 = const.i64 42
//	  r4 = add r1, r3
//	  condbr r4, %body, %exit
//	body:
//	  ...
//	}
//
// Comments run from ';' to end of line. Register names are arbitrary
// identifiers. A canonical name of the form r<N> (as the printer emits)
// keeps register number N, so Parse(Print(f)) reproduces f's register
// numbering exactly; ReadFunction decodes AppendFunction's bytes to that
// same function. Any other identifier is assigned the lowest free number
// in definition order, parameters first.
//
// Parse scans each function's lines once, by index, into scratch it reuses
// for the next function, then builds the function from a fixed number of
// arenas sized by that scan, as ReadFunction does. The names a function
// keeps are copied into one string it owns, so the result does not keep
// src alive. The scratch comes from a pool and goes back to it when Parse
// returns (see parsers).
func Parse(src string) (*Module, error) {
	p := newParser(src)
	defer p.release()
	return p.module()
}

// module parses p's whole source.
func (p *parser) module() (*Module, error) {
	p.load()
	m := &Module{}
	// byName resolves duplicates and call targets in one probe each, where
	// Module.Func scans the whole list.
	byName := make(map[string]*Function)
	var calls []pendingCall
	for {
		p.skipBlank()
		if p.eof {
			break
		}
		f, err := p.parseFunc(&calls)
		if err != nil {
			return nil, err
		}
		if byName[f.Name] != nil {
			return nil, fmt.Errorf("ir: duplicate function @%s", f.Name)
		}
		byName[f.Name] = f
		m.Add(f)
	}
	// Resolve call targets module-wide (forward references allowed), then
	// verify every function.
	for _, pc := range calls {
		callee := byName[pc.name]
		if callee == nil {
			return nil, fmt.Errorf("ir: line %d: call to undefined function @%s", pc.line+1, pc.name)
		}
		pc.instr.Callee = callee
	}
	for _, f := range m.Funcs {
		if err := Verify(f); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// parsers holds the scratch of finished parses for later ones, so a
// process that parses many programs, as needled does twice for each one it
// is sent, stops allocating the raw tables. A parser goes back with every
// string slot cleared, so the pool never keeps a source alive, and only
// after a source of at most maxPooledSource bytes, which bounds what the
// pool retains; nothing Parse returns refers to the scratch.
var parsers sync.Pool

// maxPooledSource is the longest source whose scratch is kept for reuse:
// about 0.4 MB of tables at the presize below.
const maxPooledSource = 64 << 10

// newParser readies a parser for src, on pooled scratch when there is
// some. Printed text holds about one instruction, two operands and half a
// block reference per 24 bytes, and a block per 128; fresh scratch starts
// at that size, and either grows past it when it must.
func newParser(src string) *parser {
	if p, _ := parsers.Get().(*parser); p != nil {
		p.src = src
		return p
	}
	return &parser{
		src:    src,
		blocks: make([]rawBlock, 0, len(src)/128),
		instrs: make([]rawInstr, 0, len(src)/24),
		args:   make([]string, 0, len(src)/12),
		refs:   make([]string, 0, len(src)/48),
	}
}

// release returns p's scratch to the pool with no string left in it.
func (p *parser) release() {
	if len(p.src) > maxPooledSource {
		return
	}
	p.clearScan()
	clear(p.named)
	*p = parser{
		blocks: p.blocks, instrs: p.instrs, args: p.args, refs: p.refs,
		state: p.state[:0], named: p.named,
	}
	parsers.Put(p)
}

// clearScan empties the scan tables, zeroing the entries they held.
func (p *parser) clearScan() {
	clear(p.blocks)
	clear(p.instrs)
	clear(p.args)
	clear(p.refs)
	p.blocks, p.instrs, p.args, p.refs = p.blocks[:0], p.instrs[:0], p.args[:0], p.refs[:0]
}

// pendingCall records a call instruction awaiting module-level resolution.
type pendingCall struct {
	instr *Instr
	name  string
	line  int
}

// ParseFunction parses a source containing exactly one function.
func ParseFunction(src string) (*Function, error) {
	m, err := Parse(src)
	if err != nil {
		return nil, err
	}
	if len(m.Funcs) != 1 {
		return nil, fmt.Errorf("ir: expected exactly one function, found %d", len(m.Funcs))
	}
	return m.Funcs[0], nil
}

// parser walks src one line at a time and holds the scratch one function's
// scan fills: its blocks, its instructions and their operand names, all
// substrings of src.
type parser struct {
	src  string
	off  int    // byte offset of the line after the current one
	pos  int    // index of the current line
	line string // the current line, comment stripped and trimmed
	eof  bool   // past the last line

	// The scan tables. Every entry past a table's length is zero, so
	// clearing its length clears every string it holds.
	blocks []rawBlock
	instrs []rawInstr
	args   []string // operand register names of instrs
	refs   []string // block names instrs refer to

	// Register numbering of the function being built: state is indexed by
	// register number, named maps the non-canonical names.
	state []regState
	named map[string]Reg
	next  Reg // lowest number a non-canonical name may take
	top   Reg // highest number defined
}

// regState is what holds one register number.
type regState uint8

const (
	regFree   regState = iota
	regPinned          // a parameter or a canonical r<N> definition
	regNamed           // a definition under any other name
)

// rawBlock is a scanned block label; its instructions run from first to
// the next block's first.
type rawBlock struct {
	name  string
	first int
}

// rawInstr is an instruction scanned into names, before register
// resolution: its operand names are args[arg:arg+nargs] of the parser and
// its block references refs[ref:ref+nrefs].
type rawInstr struct {
	line       int
	dst        string
	mnemonic   string
	callee     string // called function name for call instructions
	imm        int64
	arg, nargs int
	ref, nrefs int
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("ir: line %d: %s", p.pos+1, fmt.Sprintf(format, args...))
}

// load makes the line at off current. Like strings.Split on "\n", the text
// after the last newline is a line of its own, even when empty.
func (p *parser) load() {
	if p.off > len(p.src) {
		p.eof, p.line = true, ""
		return
	}
	rest := p.src[p.off:]
	end := strings.IndexByte(rest, '\n')
	if end < 0 {
		end = len(rest)
	}
	line := rest[:end]
	p.off += end + 1
	if i := strings.IndexByte(line, ';'); i >= 0 {
		line = line[:i]
	}
	p.line = strings.TrimSpace(line)
}

// advance moves to the next line.
func (p *parser) advance() {
	p.pos++
	p.load()
}

func (p *parser) skipBlank() {
	for !p.eof && p.line == "" {
		p.advance()
	}
}

// parseFunc parses the function whose header is the current line, adding
// its calls to calls.
func (p *parser) parseFunc(calls *[]pendingCall) (*Function, error) {
	header := p.line
	if !strings.HasPrefix(header, "func @") {
		return nil, p.errf("expected 'func @name(...)', got %q", header)
	}
	open := strings.IndexByte(header, '(')
	closeP := strings.LastIndexByte(header, ')')
	if open < 0 || closeP < open || !strings.HasSuffix(header, "{") {
		return nil, p.errf("malformed function header %q", header)
	}
	name := strings.TrimSpace(header[len("func @"):open])
	if name == "" {
		return nil, p.errf("missing function name")
	}
	params, err := p.parseParams(strings.TrimSpace(header[open+1 : closeP]))
	if err != nil {
		return nil, err
	}
	p.advance()

	// Scan the body into blocks of raw instructions.
	p.clearScan()
	for {
		p.skipBlank()
		if p.eof {
			return nil, p.errf("unexpected end of input in function %s", name)
		}
		line := p.line
		if line == "}" {
			p.advance()
			break
		}
		if strings.HasSuffix(line, ":") && !strings.Contains(line, " ") {
			p.blocks = append(p.blocks, rawBlock{name: line[:len(line)-1], first: len(p.instrs)})
			p.advance()
			continue
		}
		if len(p.blocks) == 0 {
			return nil, p.errf("instruction before first block label")
		}
		if err := p.scanInstr(line); err != nil {
			return nil, err
		}
		p.advance()
	}
	if len(p.blocks) == 0 {
		return nil, p.errf("function %s has no blocks", name)
	}
	return p.build(name, params, calls)
}

// parseParams parses a header's comma-separated parameter types.
func (p *parser) parseParams(src string) ([]Type, error) {
	if src == "" {
		return nil, nil
	}
	params := make([]Type, 0, strings.Count(src, ",")+1)
	for {
		part, rest, more := strings.Cut(src, ",")
		t, err := parseType(strings.TrimSpace(part))
		if err != nil {
			return nil, p.errf("%v", err)
		}
		params = append(params, t)
		if !more {
			return params, nil
		}
		src = rest
	}
}

// build makes the function the scan describes. Pass 1 creates its blocks
// and instructions and numbers every definition; pass 2 resolves operand
// registers and block references. Blocks, instructions, instruction
// pointers, operand registers and block pointers (the block list, every
// block reference and every block's predecessors) each come from one
// arena, and every window of an arena has a capacity equal to its length,
// so an append by a consumer copies instead of overwriting its neighbour.
func (p *parser) build(name string, params []Type, calls *[]pendingCall) (*Function, error) {
	nb, ni, nr := len(p.blocks), len(p.instrs), len(p.refs)
	size := len(name)
	for _, rb := range p.blocks {
		size += len(rb.name)
	}
	var sb strings.Builder
	sb.Grow(size)
	sb.WriteString(name)
	for _, rb := range p.blocks {
		sb.WriteString(rb.name)
	}
	names := sb.String()

	f := &Function{Name: names[:len(name)], Params: params}
	blocks := make([]Block, nb)
	instrs := make([]Instr, ni)
	iptrs := make([]*Instr, ni)
	// Predecessors are terminator references, so at most nr of them.
	bptrs := make([]*Block, nb+2*nr)
	f.Blocks = bptrs[:nb:nb]
	byName := make(map[string]*Block, nb)
	at := len(name)
	for i, rb := range p.blocks {
		b := &blocks[i]
		b.Name = names[at : at+len(rb.name)]
		at += len(rb.name)
		if byName[b.Name] != nil {
			return nil, fmt.Errorf("ir: %s: duplicate block %q", name, rb.name)
		}
		f.Blocks[i] = b
		byName[b.Name] = b
		end := ni
		if i+1 < nb {
			end = p.blocks[i+1].first
		}
		if end > rb.first {
			b.Instrs = iptrs[rb.first:end:end]
		}
	}

	// Pass 1: opcodes and definitions. A definition takes at most the
	// number of parameters plus definitions so far, or the number its
	// canonical name pins, so that bounds the register table.
	defs, pinned, named := 0, 0, 0
	for i := range p.instrs {
		if dst := p.instrs[i].dst; dst != "" {
			defs++
			if n, ok := canonicalRegNumber(dst); ok {
				pinned = max(pinned, int(n))
			} else {
				named++
			}
		}
	}
	regTop := max(len(params)+defs, pinned)
	p.resetRegs(regTop+1, len(params), named)
	regType := make([]Type, regTop+1)
	copy(regType[1:], params)
	for i := range p.instrs {
		ri := &p.instrs[i]
		op, declared, err := parseMnemonic(ri.mnemonic)
		if err != nil {
			return nil, fmt.Errorf("ir: line %d: %v", ri.line+1, err)
		}
		in := &instrs[i]
		iptrs[i] = in
		in.Op, in.Type, in.Imm = op, declared, ri.imm
		if op.HasDest() {
			if ri.dst == "" {
				return nil, fmt.Errorf("ir: line %d: %s requires a destination", ri.line+1, op)
			}
			r, err := p.defReg(ri.dst, ri.line)
			if err != nil {
				return nil, err
			}
			in.Dst = r
			regType[r] = op.ResultType(declared)
		} else if ri.dst != "" {
			return nil, fmt.Errorf("ir: line %d: %s must not have a destination", ri.line+1, op)
		}
	}
	f.RegType = regType[: p.top+1 : p.top+1]

	// Pass 2: resolve operand registers and block targets.
	regs := make([]Reg, len(p.args))
	rb := nb // next free block pointer
	for i := range p.instrs {
		ri, in := &p.instrs[i], &instrs[i]
		if n := ri.nargs; n > 0 {
			in.Args = regs[ri.arg : ri.arg+n : ri.arg+n]
			for j, an := range p.args[ri.arg : ri.arg+n] {
				r, ok := p.reg(an)
				if !ok {
					return nil, fmt.Errorf("ir: line %d: undefined register %s", ri.line+1, an)
				}
				in.Args[j] = r
			}
		}
		if n := ri.nrefs; n > 0 {
			in.Blocks = bptrs[rb : rb+n : rb+n]
			rb += n
			for j, bn := range p.refs[ri.ref : ri.ref+n] {
				t, ok := byName[bn]
				if !ok {
					return nil, fmt.Errorf("ir: line %d: undefined block %%%s", ri.line+1, bn)
				}
				in.Blocks[j] = t
			}
		}
		if ri.callee != "" {
			*calls = append(*calls, pendingCall{instr: in, name: ri.callee, line: ri.line})
		}
		// Returns carry the type of their operand (the mnemonic has no
		// suffix to declare it).
		if in.Op == OpRet && len(in.Args) == 1 {
			in.Type = f.RegType[in.Args[0]]
		}
	}

	// Carve each block a predecessor window of exactly the size link fills;
	// Block.Index counts them until link assigns it.
	for _, b := range f.Blocks {
		for _, s := range b.Succs() {
			s.Index++
		}
	}
	for _, b := range f.Blocks {
		if n := b.Index; n > 0 {
			b.Preds = bptrs[rb : rb : rb+n]
			rb += n
		}
	}
	f.link(byName)
	return f, nil
}

// resetRegs readies the register table for a function whose definitions
// take numbers below size, with nparams parameters and named definitions
// under non-canonical names.
func (p *parser) resetRegs(size, nparams, named int) {
	if cap(p.state) < size {
		p.state = make([]regState, size)
	} else {
		p.state = p.state[:size]
		clear(p.state)
	}
	for r := 1; r <= nparams; r++ {
		p.state[r] = regPinned
	}
	if p.named == nil && named > 0 {
		p.named = make(map[string]Reg, named)
	} else {
		clear(p.named)
	}
	p.next, p.top = Reg(1+nparams), Reg(nparams)
}

// defReg numbers the register a definition names: a canonical r<N> keeps
// N, preserving the printed function's numbering across a round trip, and
// any other name takes the lowest free number.
func (p *parser) defReg(nm string, line int) (Reg, error) {
	n, canonical := canonicalRegNumber(nm)
	if _, ok := p.reg(nm); ok {
		return NoReg, fmt.Errorf("ir: line %d: register %s defined more than once", line+1, nm)
	}
	r := n
	if canonical {
		if p.state[n] != regFree {
			return NoReg, fmt.Errorf("ir: line %d: register %s conflicts with an earlier definition", line+1, nm)
		}
		p.state[n] = regPinned
	} else {
		for p.state[p.next] != regFree {
			p.next++
		}
		r = p.next
		p.state[r] = regNamed
		p.named[nm] = r
	}
	p.top = max(p.top, r)
	return r, nil
}

// reg resolves a register name defined so far.
func (p *parser) reg(nm string) (Reg, bool) {
	if n, ok := canonicalRegNumber(nm); ok {
		return n, int(n) < len(p.state) && p.state[n] == regPinned
	}
	r, ok := p.named[nm]
	return r, ok
}

// scanInstr scans one instruction line into the scratch.
func (p *parser) scanInstr(line string) error {
	p.instrs = append(p.instrs, rawInstr{line: p.pos, arg: len(p.args), ref: len(p.refs)})
	ri := &p.instrs[len(p.instrs)-1]
	rest := line
	if eq := strings.Index(rest, " = "); eq >= 0 {
		ri.dst = strings.TrimSpace(rest[:eq])
		rest = strings.TrimSpace(rest[eq+3:])
	}
	if rest == "" {
		return p.errf("empty instruction")
	}
	end := strings.IndexFunc(rest, unicode.IsSpace)
	if end < 0 {
		end = len(rest)
	}
	ri.mnemonic = rest[:end]
	operands := strings.TrimSpace(rest[end:])

	base := ri.mnemonic
	if dot := strings.LastIndexByte(base, '.'); dot > 0 {
		if suf := base[dot+1:]; suf == "i64" || suf == "f64" {
			base = base[:dot]
		}
	}
	var err error
	switch base {
	case "call":
		callee, args := nextField(operands)
		if !strings.HasPrefix(callee, "@") {
			return p.errf("call wants '@callee args...'")
		}
		ri.callee = callee[1:]
		for f, rest := nextField(args); f != ""; f, rest = nextField(rest) {
			p.args = append(p.args, f)
		}
	case "const":
		err = p.parseConst(ri, operands)
	case "phi":
		err = p.parsePhi(operands)
	case "br":
		t, berr := parseBlockRef(operands)
		if berr != nil {
			return p.errf("%v", berr)
		}
		p.refs = append(p.refs, t)
	case "condbr":
		p.args = appendOperands(p.args, operands)
		parts := p.args[ri.arg:]
		if len(parts) != 3 {
			return p.errf("condbr wants 'cond, %%then, %%else'")
		}
		for _, bp := range parts[1:] {
			t, berr := parseBlockRef(bp)
			if berr != nil {
				return p.errf("%v", berr)
			}
			p.refs = append(p.refs, t)
		}
		clear(parts[1:])
		p.args = p.args[:ri.arg+1]
	default:
		p.args = appendOperands(p.args, operands)
	}
	if err != nil {
		return err
	}
	ri.nargs, ri.nrefs = len(p.args)-ri.arg, len(p.refs)-ri.ref
	return nil
}

// nextField returns the first whitespace-separated field of s and what
// follows it, as strings.Fields splits.
func nextField(s string) (field, rest string) {
	s = strings.TrimLeftFunc(s, unicode.IsSpace)
	end := strings.IndexFunc(s, unicode.IsSpace)
	if end < 0 {
		return s, ""
	}
	return s[:end], s[end:]
}

// appendOperands appends the comma-separated operands of s to dst,
// trimmed, skipping empty ones.
func appendOperands(dst []string, s string) []string {
	for s != "" {
		part, rest, _ := strings.Cut(s, ",")
		if t := strings.TrimSpace(part); t != "" {
			dst = append(dst, t)
		}
		s = rest
	}
	return dst
}

func (p *parser) parseConst(ri *rawInstr, operands string) error {
	operands = strings.TrimSpace(operands)
	if operands == "" {
		return p.errf("const requires a literal")
	}
	if strings.HasSuffix(ri.mnemonic, ".f64") {
		if strings.HasPrefix(operands, "bits:") {
			bits, err := strconv.ParseUint(strings.TrimPrefix(operands, "bits:"), 0, 64)
			if err != nil {
				return p.errf("bad f64 bit pattern: %v", err)
			}
			ri.imm = int64(bits)
			return nil
		}
		v, err := strconv.ParseFloat(operands, 64)
		if err != nil {
			return p.errf("bad f64 literal: %v", err)
		}
		ri.imm = int64(math.Float64bits(v))
		return nil
	}
	v, err := strconv.ParseInt(operands, 0, 64)
	if err != nil {
		return p.errf("bad i64 literal: %v", err)
	}
	ri.imm = v
	return nil
}

func (p *parser) parsePhi(operands string) error {
	rest := strings.TrimSpace(operands)
	n := 0
	for rest != "" {
		if rest[0] != '[' {
			return p.errf("phi incoming must look like [block: reg]")
		}
		end := strings.IndexByte(rest, ']')
		if end < 0 {
			return p.errf("unterminated phi incoming")
		}
		inner := rest[1:end]
		colon := strings.IndexByte(inner, ':')
		if colon < 0 {
			return p.errf("phi incoming missing ':'")
		}
		p.refs = append(p.refs, strings.TrimSpace(inner[:colon]))
		p.args = append(p.args, strings.TrimSpace(inner[colon+1:]))
		n++
		rest = strings.TrimSpace(rest[end+1:])
	}
	if n == 0 {
		return p.errf("phi requires at least one incoming edge")
	}
	return nil
}

// maxCanonicalReg bounds the register number a canonical r<N> name may pin,
// so a hand-written file cannot force an absurd RegType allocation.
const maxCanonicalReg = 1 << 20

// canonicalRegNumber reports whether a register name is the printer's
// canonical r<N> form (no leading zeros) and, if so, its number.
func canonicalRegNumber(nm string) (Reg, bool) {
	if len(nm) < 2 || nm[0] != 'r' || nm[1] == '0' {
		return NoReg, false
	}
	n := 0
	for i := 1; i < len(nm); i++ {
		c := nm[i]
		if c < '0' || c > '9' {
			return NoReg, false
		}
		n = n*10 + int(c-'0')
		if n > maxCanonicalReg {
			return NoReg, false
		}
	}
	return Reg(n), true
}

func parseBlockRef(s string) (string, error) {
	s = strings.TrimSpace(s)
	if !strings.HasPrefix(s, "%") || len(s) < 2 {
		return "", fmt.Errorf("expected block reference %%name, got %q", s)
	}
	return s[1:], nil
}

func parseType(s string) (Type, error) {
	switch s {
	case "i64":
		return I64, nil
	case "f64":
		return F64, nil
	}
	return I64, fmt.Errorf("unknown type %q", s)
}

// parseMnemonic splits a mnemonic like "load.i64" into opcode and type.
func parseMnemonic(m string) (Op, Type, error) {
	declared := I64
	base := m
	if dot := strings.LastIndexByte(m, '.'); dot > 0 {
		suf := m[dot+1:]
		if suf == "i64" || suf == "f64" {
			base = m[:dot]
			t, _ := parseType(suf)
			declared = t
		}
	}
	op, ok := OpByName(base)
	if !ok {
		return 0, I64, fmt.Errorf("unknown opcode %q", m)
	}
	if opNeedsTypeSuffix(op) && base == m {
		return 0, I64, fmt.Errorf("opcode %q requires a type suffix", m)
	}
	if impliedType(op) == F64 {
		declared = F64
	}
	return op, declared, nil
}

// impliedType is the type of an op whose mnemonic has no type suffix: F64
// for float arithmetic, the intrinsics and sitofp, I64 otherwise.
func impliedType(op Op) Type {
	if op.IsFloat() && !op.IsCompare() && op != OpFPToSI {
		return F64
	}
	return I64
}
