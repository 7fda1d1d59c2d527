// Package config parses the JOSHUA cluster configuration file — the
// role libconfuse played in the original prototype's software stack
// (paper Figure 9). The format is a small INI dialect:
//
//	# comment
//	server_name = cluster
//
//	[head head0]
//	gcs    = 127.0.0.1:7000
//	client = 127.0.0.1:7001
//	pbs    = 127.0.0.1:7002
//
//	[compute compute0]
//	mom = 127.0.0.1:7100
//
//	[options]
//	exclusive = true
//	time_scale = 1.0
//
// Sections are "[kind name]" (or bare "[kind]"); keys are
// "key = value" with '#' comments and blank lines ignored. Values keep
// internal whitespace; surrounding whitespace is trimmed.
package config

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// File is a parsed configuration.
type File struct {
	// Globals holds the top-level keys (before any section header), as
	// a section with an empty Kind.
	Globals *Section
	// Sections in file order.
	Sections []*Section
}

// Section is one "[kind name]" block.
type Section struct {
	Kind string
	Name string
	Keys map[string]string
	Line int
	// lines records the line each key was set on.
	lines map[string]int
}

func newSection(kind, name string, line int) *Section {
	return &Section{Kind: kind, Name: name, Keys: map[string]string{}, Line: line, lines: map[string]int{}}
}

// ParseError reports a syntax error with its line number.
type ParseError struct {
	Line int
	Msg  string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("config: line %d: %s", e.Line, e.Msg)
}

// Load reads and parses a configuration file from disk.
func Load(path string) (*File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Parse(f)
}

// Parse reads a configuration from r.
func Parse(r io.Reader) (*File, error) {
	file := &File{Globals: newSection("", "", 0)}
	current := file.Globals

	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		if i := strings.IndexByte(text, '#'); i >= 0 {
			text = text[:i]
		}
		text = strings.TrimSpace(text)
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, "[") {
			if !strings.HasSuffix(text, "]") {
				return nil, &ParseError{line, "unterminated section header"}
			}
			header := strings.TrimSpace(text[1 : len(text)-1])
			if header == "" {
				return nil, &ParseError{line, "empty section header"}
			}
			parts := strings.Fields(header)
			sec := newSection(parts[0], strings.Join(parts[1:], " "), line)
			file.Sections = append(file.Sections, sec)
			current = sec
			continue
		}
		eq := strings.IndexByte(text, '=')
		if eq < 0 {
			return nil, &ParseError{line, fmt.Sprintf("expected key = value, got %q", text)}
		}
		key := strings.TrimSpace(text[:eq])
		val := strings.TrimSpace(text[eq+1:])
		if key == "" {
			return nil, &ParseError{line, "empty key"}
		}
		if _, dup := current.Keys[key]; dup {
			return nil, &ParseError{line, fmt.Sprintf("duplicate key %q", key)}
		}
		current.Keys[key] = val
		current.lines[key] = line
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return file, nil
}

// SectionsOf returns all sections of a kind, in file order.
func (f *File) SectionsOf(kind string) []*Section {
	var out []*Section
	for _, s := range f.Sections {
		if s.Kind == kind {
			out = append(out, s)
		}
	}
	return out
}

// SectionNames returns the sorted names of all sections of a kind.
func (f *File) SectionNames(kind string) []string {
	var names []string
	for _, s := range f.SectionsOf(kind) {
		names = append(names, s.Name)
	}
	sort.Strings(names)
	return names
}

// Get returns a section key, or the empty string.
func (s *Section) Get(key string) string { return s.Keys[key] }

// Require returns a section key or an error naming the section.
func (s *Section) Require(key string) (string, error) {
	v, ok := s.Keys[key]
	if !ok || v == "" {
		return "", fmt.Errorf("config: section [%s %s] (line %d): missing key %q", s.Kind, s.Name, s.Line, key)
	}
	return v, nil
}

// Bool parses a boolean key ("true"/"false"/"yes"/"no"/"1"/"0"),
// returning def when absent.
func (s *Section) Bool(key string, def bool) (bool, error) {
	return parseBool(s.Keys[key], key, def)
}

// Float parses a float key, returning def when absent.
func (s *Section) Float(key string, def float64) (float64, error) {
	v, ok := s.Keys[key]
	if !ok || v == "" {
		return def, nil
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, fmt.Errorf("config: key %q: %v", key, err)
	}
	return f, nil
}

// Int parses a (possibly negative) integer key, returning def when
// absent. Knobs whose negative values mean something (a negative
// sched_weight_* factor inverts its term) need the signed form.
func (s *Section) Int(key string, def int64) (int64, error) {
	v, ok := s.Keys[key]
	if !ok || v == "" {
		return def, nil
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("config: key %q: %v", key, err)
	}
	return n, nil
}

// Uint parses a non-negative integer key, returning def when absent.
func (s *Section) Uint(key string, def uint64) (uint64, error) {
	v, ok := s.Keys[key]
	if !ok || v == "" {
		return def, nil
	}
	n, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("config: key %q: %v", key, err)
	}
	return n, nil
}

// Duration parses a duration key ("250ms", "2s"), returning def when
// absent.
func (s *Section) Duration(key string, def time.Duration) (time.Duration, error) {
	v, ok := s.Keys[key]
	if !ok || v == "" {
		return def, nil
	}
	d, err := time.ParseDuration(v)
	if err != nil {
		return 0, fmt.Errorf("config: key %q: %v", key, err)
	}
	return d, nil
}

func parseBool(v, key string, def bool) (bool, error) {
	switch strings.ToLower(v) {
	case "":
		return def, nil
	case "true", "yes", "1", "on":
		return true, nil
	case "false", "no", "0", "off":
		return false, nil
	default:
		return false, fmt.Errorf("config: key %q: invalid boolean %q", key, v)
	}
}
