package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
)

// indentJSON pretty-prints compact JSON.
func indentJSON(b []byte) ([]byte, error) {
	var buf bytes.Buffer
	if err := json.Indent(&buf, b, "", "  "); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// WriteJSON writes an indented JSON snapshot of the registry to w.
func (r *Registry) WriteJSON(w io.Writer) error {
	b, err := r.MarshalJSON()
	if err != nil {
		return err
	}
	// Re-indent for human consumption; MarshalJSON stays compact for
	// machine readers.
	out, err := indentJSON(b)
	if err != nil {
		return err
	}
	_, err = w.Write(append(out, '\n'))
	return err
}

// DumpFile writes the registry snapshot to path; "-" means stdout.
func (r *Registry) DumpFile(path string) error {
	if path == "-" {
		return r.WriteJSON(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
