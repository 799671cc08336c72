package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// binary is the command whose link set defines the library.
const binary = "cmd/dsn-audit"

// isLibrary reports whether rule 2 covers the package at rel, a
// module-relative path of a package that is not package main: one outside
// cmd/, bench/ and scripts/.
func isLibrary(rel string) bool {
	for _, dir := range []string{"cmd", "bench", "scripts"} {
		if rel == dir || strings.HasPrefix(rel, dir+"/") {
			return false
		}
	}
	return true
}

// linkBuild is a build of the binary with the module's inlining off, so
// that every module function the binary calls keeps a symbol of its own.
type linkBuild struct {
	cmd *exec.Cmd
	dir string
	out bytes.Buffer
}

// startLink starts the build; wait collects its result and close removes
// it. It runs beside the type-checking, which does not need it.
func startLink(root, modPath string) (*linkBuild, error) {
	dir, err := os.MkdirTemp("", "exportlint")
	if err != nil {
		return nil, err
	}
	b := &linkBuild{dir: dir}
	b.cmd = exec.Command("go", "build", "-gcflags="+modPath+"/...=-l",
		"-o", filepath.Join(dir, "bin"), "./"+binary)
	b.cmd.Dir = root
	b.cmd.Stdout, b.cmd.Stderr = &b.out, &b.out
	if err := b.cmd.Start(); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return b, nil
}

// wait returns the module-relative names of every function and method the
// binary links, normalized by linkedName.
func (b *linkBuild) wait(modPath string) (map[string]bool, error) {
	if err := b.cmd.Wait(); err != nil {
		return nil, fmt.Errorf("go build ./%s: %v\n%s", binary, err, b.out.String())
	}
	nm, err := exec.Command("go", "tool", "nm", filepath.Join(b.dir, "bin")).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool nm: %v", err)
	}
	linked := map[string]bool{}
	sc := bufio.NewScanner(bytes.NewReader(nm))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		// "address type name"; a generic instance's name may hold spaces.
		f := strings.SplitN(strings.TrimSpace(sc.Text()), " ", 3)
		if len(f) != 3 || f[1] != "T" && f[1] != "t" {
			continue
		}
		for _, n := range linkedName(f[2], modPath) {
			linked[n] = true
		}
	}
	return linked, sc.Err()
}

// close stops a build nobody waited for and removes its output.
func (b *linkBuild) close() {
	if b.cmd.ProcessState == nil {
		b.cmd.Process.Kill()
		b.cmd.Wait()
	}
	os.RemoveAll(b.dir)
}

// linkedName maps a text symbol of a module package to the declarations it
// may stand for: rel.A and rel.A.B. Type arguments go first,
// "repro/p.(*T[go.shape.int]).M.func1" reading as p.T.M.func1, then the
// receiver's "(*T)" form and a method value's "-fm" suffix. What follows a
// declaration's name (closures funcN, nested closures N, defer and go
// wrappers) matches no declaration, so both prefixes are offered and the
// caller keeps the one that is declared.
func linkedName(sym, modPath string) []string {
	var s strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			s.WriteRune(r)
		}
	}
	name := s.String()
	if !strings.HasPrefix(name, modPath+".") && !strings.HasPrefix(name, modPath+"/") {
		return nil
	}
	slash := strings.LastIndexByte(name, '/')
	if slash < len(modPath) {
		slash = len(modPath)
	}
	dot := strings.IndexByte(name[slash:], '.')
	if dot < 0 {
		return nil
	}
	rel := strings.TrimPrefix(strings.TrimPrefix(name[:slash+dot], modPath), "/")
	if rel == "" {
		rel = "."
	}
	rest := strings.NewReplacer("(*", "", "(", "", ")", "", "-fm", "").Replace(name[slash+dot+1:])
	parts := strings.SplitN(rest, ".", 3)
	out := []string{rel + "." + parts[0]}
	if len(parts) > 1 {
		out = append(out, rel+"."+parts[0]+"."+parts[1])
	}
	return out
}
