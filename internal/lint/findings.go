package lint

import (
	"encoding/json"
	"path/filepath"
)

// Finding is the machine-readable form of a Diagnostic (-json output).
// File is module-root-relative so findings are stable across checkouts.
type Finding struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Check   string `json:"check"`
	Message string `json:"message"`
}

// Findings converts diagnostics to findings with module-relative paths.
func (p *Program) Findings(diags []Diagnostic) []Finding {
	out := make([]Finding, 0, len(diags))
	for _, d := range diags {
		file := d.Pos.Filename
		if p.ModuleRoot != "" {
			if rel, err := filepath.Rel(p.ModuleRoot, file); err == nil && !filepath.IsAbs(rel) {
				file = filepath.ToSlash(rel)
			}
		}
		out = append(out, Finding{File: file, Line: d.Pos.Line, Check: d.Check, Message: d.Message})
	}
	return out
}

// MarshalFindings renders findings as an indented JSON array.
func MarshalFindings(findings []Finding) ([]byte, error) {
	if findings == nil {
		findings = []Finding{}
	}
	data, err := json.MarshalIndent(findings, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}
