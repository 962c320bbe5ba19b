package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"unicode/utf8"
)

// esc turns every %u in s into the two bytes that open a JSON unicode
// escape, so the documents below can spell such escapes out.
func esc(s string) []byte { return []byte(strings.ReplaceAll(s, "%u", "\x5cu")) }

// goldenDocs loads testdata/golden: State documents written by the
// reference encoder for pauses of MiniPy test programs, a program with
// aliasing and cycles, watch and return pauses, and a MiniC heap program.
func goldenDocs(tb testing.TB) (names []string, docs [][]byte) {
	tb.Helper()
	files, err := filepath.Glob(filepath.Join("testdata", "golden", "*.json"))
	if err != nil || len(files) == 0 {
		tb.Fatalf("no golden documents: %v", err)
	}
	sort.Strings(files)
	for _, f := range files {
		doc, err := os.ReadFile(f)
		if err != nil {
			tb.Fatal(err)
		}
		names = append(names, filepath.Base(f))
		docs = append(docs, doc)
	}
	return names, docs
}

// nullDocs put null where the format needs a frame, a variable, a dict
// entry or a struct field. Each once crashed the decoder's walk.
var nullDocs = []string{
	`{"frames":[null]}`,
	`{"frames":[{"name":"f","depth":0,"vars":[null]}]}`,
	`{"globals":[null]}`,
	`{"globals":[{"name":"d","value":{"id":1,"kind":"DICT","dict":[null]}}]}`,
	`{"globals":[{"name":"s","value":{"id":1,"kind":"STRUCT","struct":[null]}}]}`,
}

func TestStateJSONGolden(t *testing.T) {
	names, docs := goldenDocs(t)
	for i, doc := range docs {
		var ref State
		if err := refUnmarshalState(doc, &ref); err != nil {
			t.Fatalf("%s: reference decode: %v", names[i], err)
		}
		if got, _ := ref.MarshalJSON(); !bytes.Equal(got, doc) {
			t.Errorf("%s: encoder bytes differ from the reference's\n got %s\nwant %s", names[i], got, doc)
		}
		var back State
		if err := back.UnmarshalJSON(doc); err != nil {
			t.Fatalf("%s: decode: %v", names[i], err)
		}
		if got, _ := back.MarshalJSON(); !bytes.Equal(got, doc) {
			t.Errorf("%s: decode then encode changed the document\n got %s\nwant %s", names[i], got, doc)
		}
	}
}

func TestStateJSONNullElements(t *testing.T) {
	paths := []struct {
		name   string
		decode func([]byte) error
	}{
		{"reference", func(d []byte) error { var s State; return refUnmarshalState(d, &s) }},
		{"State.UnmarshalJSON", func(d []byte) error { var s State; return s.UnmarshalJSON(d) }},
		{"json.Unmarshal", func(d []byte) error { var s State; return json.Unmarshal(d, &s) }},
	}
	for _, doc := range nullDocs {
		for _, p := range paths {
			err := p.decode([]byte(doc))
			if err == nil || !strings.Contains(err.Error(), "core: null") {
				t.Errorf("%s(%s) = %v, want a null-element error", p.name, doc, err)
			}
		}
	}
}

// jsonRoot is one of the four document roots of the format.
type jsonRoot struct {
	name string
	// decode decodes doc with the product codec and re-encodes the result.
	decode func(doc []byte) ([]byte, error)
	// ref decodes doc with the reference and re-encodes the result with the
	// product encoder and with the reference encoder.
	ref func(doc []byte) (product, reference []byte, err error)
}

var jsonRoots = []jsonRoot{
	{
		name: "State",
		decode: func(doc []byte) ([]byte, error) {
			var s State
			if err := s.UnmarshalJSON(doc); err != nil {
				return nil, err
			}
			return s.MarshalJSON()
		},
		ref: func(doc []byte) ([]byte, []byte, error) {
			var s State
			if err := refUnmarshalState(doc, &s); err != nil {
				return nil, nil, err
			}
			prod, _ := s.MarshalJSON()
			ref, err := refMarshalState(&s)
			return prod, ref, err
		},
	},
	{
		name: "Value",
		decode: func(doc []byte) ([]byte, error) {
			var v Value
			if err := v.UnmarshalJSON(doc); err != nil {
				return nil, err
			}
			return v.MarshalJSON()
		},
		ref: func(doc []byte) ([]byte, []byte, error) {
			var v Value
			if err := refUnmarshalValue(doc, &v); err != nil {
				return nil, nil, err
			}
			prod, _ := v.MarshalJSON()
			ref, err := refMarshalValue(&v)
			return prod, ref, err
		},
	},
	{
		name: "ValueList",
		decode: func(doc []byte) ([]byte, error) {
			var l ValueList
			if err := l.UnmarshalJSON(doc); err != nil {
				return nil, err
			}
			return l.MarshalJSON()
		},
		ref: func(doc []byte) ([]byte, []byte, error) {
			var l ValueList
			if err := refUnmarshalList(doc, &l); err != nil {
				return nil, nil, err
			}
			prod, _ := l.MarshalJSON()
			ref, err := refMarshalList(l)
			return prod, ref, err
		},
	},
	{
		name: "PauseReason",
		decode: func(doc []byte) ([]byte, error) {
			r, err := DecodePauseReasonJSON(doc)
			if err != nil {
				return nil, err
			}
			return EncodePauseReasonJSON(r)
		},
		ref: func(doc []byte) ([]byte, []byte, error) {
			r, err := refDecodePause(doc)
			if err != nil {
				return nil, nil, err
			}
			prod, _ := EncodePauseReasonJSON(r)
			ref, err := refEncodePause(r)
			return prod, ref, err
		},
	},
}

// hasDuplicateKeys reports whether an object in doc repeats a key, with
// keys unescaped and compared by bytes.EqualFold as encoding/json matches
// them to fields. A document that is not valid JSON reports false.
func hasDuplicateKeys(doc []byte) bool {
	if !json.Valid(doc) {
		return false
	}
	type container struct {
		object, wantKey bool
		keys            []string
	}
	var stack []container
	for i := 0; i < len(doc); i++ {
		switch doc[i] {
		case '{':
			stack = append(stack, container{object: true, wantKey: true})
		case '[':
			stack = append(stack, container{})
		case '}', ']':
			stack = stack[:len(stack)-1]
		case ',':
			top := &stack[len(stack)-1]
			top.wantKey = top.object
		case '"':
			j := i + 1
			for doc[j] != '"' {
				if doc[j] == '\\' {
					j++
				}
				j++
			}
			if n := len(stack); n > 0 && stack[n-1].wantKey {
				top := &stack[n-1]
				k := string(doc[i+1 : j])
				if bytes.IndexByte(doc[i:j], '\\') >= 0 || !utf8.ValidString(k) {
					if err := json.Unmarshal(doc[i:j+1], &k); err != nil {
						panic(err)
					}
				}
				for _, o := range top.keys {
					if bytes.EqualFold([]byte(o), []byte(k)) {
						return true
					}
				}
				top.keys = append(top.keys, k)
				top.wantKey = false
			}
			i = j
		}
	}
	return false
}

// checkDoc decodes doc as each of the four roots. An accepted document
// must re-encode to a fixed point of decode then encode. Unless doc repeats
// a key, the product decoder must also accept exactly when the reference
// does, build a tree that encodes to the same bytes, and the product
// encoder must write the reference encoder's bytes for the reference's
// tree.
func checkDoc(t *testing.T, doc []byte) {
	t.Helper()
	dup := hasDuplicateKeys(doc)
	for _, r := range jsonRoots {
		checkRoot(t, r, doc, dup)
	}
}

func checkRoot(t *testing.T, r jsonRoot, doc []byte, dup bool) {
	t.Helper()
	got, gotErr := r.decode(doc)
	if gotErr == nil {
		again, err := r.decode(got)
		if err != nil {
			t.Fatalf("%s: re-decoding %q: %v", r.name, got, err)
		}
		if !bytes.Equal(again, got) {
			t.Fatalf("%s: decode and encode is not a fixed point\nfirst  %s\nsecond %s", r.name, got, again)
		}
	}
	if dup {
		return
	}
	want, ref, wantErr := r.ref(doc)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%s: %q: parser error %v, reference error %v", r.name, doc, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: %q: decoded trees differ\nparser    %s\nreference %s", r.name, doc, got, want)
	}
	if !bytes.Equal(want, ref) {
		t.Fatalf("%s: encoder bytes differ from the reference encoder's\n got %s\nwant %s", r.name, want, ref)
	}
}

// nest is a State document whose unknown key holds n nested arrays.
func nest(n int) []byte {
	return []byte(`{"x":` + strings.Repeat("[", n) + strings.Repeat("]", n) + `}`)
}

// refChain is a State whose one global holds n nested Ref values.
func refChain(n int) []byte {
	var b strings.Builder
	b.WriteString(`{"globals":[{"name":"g","value":`)
	for i := 0; i < n; i++ {
		b.WriteString(`{"kind":"REF","ref":`)
	}
	b.WriteString(`{"kind":"NONE"}`)
	b.WriteString(strings.Repeat("}", n))
	b.WriteString(`}]}`)
	return []byte(b.String())
}

// parityDocs are documents that probe each rule of the parser contract.
func parityDocs(t *testing.T) [][]byte {
	_, golden := goldenDocs(t)
	var indented bytes.Buffer
	if err := json.Indent(&indented, golden[0], "", "\t"); err != nil {
		t.Fatal(err)
	}
	docs := [][]byte{
		indented.Bytes(),
		golden[1][:len(golden[1])/2],
		nest(9999), nest(10000), // a State object plus 9999 or 10000 arrays
		refChain(9996), refChain(9997),
		[]byte("\xff"), []byte("\"a\x01b\""),
		[]byte(`{"globals":[{"name":"a` + "\x01" + `","value":null}]}`),
		[]byte(`{"globals":[{"name":"` + "\xff\xed\xa0\x80 \xe2\x80\xa8" + `","value":null}]}`),
	}
	for _, s := range nullDocs {
		docs = append(docs, []byte(s))
	}
	for _, s := range []string{
		// Whitespace, order, case folding, unknown keys, null.
		``, ` `, `null`, ` null `, `nul`, `nullx`, `{}`, ` { } `, `[]`, `5`, `"s"`, `true`,
		"\t{\n\"reason\" :\r{ \"type\" : \"STEP\" } }\n",
		`{"reason":{"line":3,"type":"STEP"},"frames":[{"depth":0,"name":"f"}]}`,
		`{"FRAMES":[{"Name":"f","DEPTH":1,"Vars":[{"NAME":"x","VALUE":{"ID":1,"KIND":"NONE"}}]}],"Reason":{"TYPE":"STEP"}}`,
		`{"globals":[{"name":"g","value":{"id":1,"%u212aind":"NONE"}}]}`,
		`{"globals":[{"name":"g","value":{"id":1,"kind":"STRUCT","%u017ftruct":[{"name":"a","value":null}]}}]}`,
		`{"globals":[{"name":"g","value":{"id":1,"%u006bind":"NONE","%u0000":1}}]}`,
		`{"x":{"a":[1,2,{"b":null}],"c":"s","d":-1.5e-3,"e":[true,false,null]},"reason":{"type":"STEP","zz":{}}}`,
		`{"frames":null,"globals":null,"reason":null}`,
		`{"frames":[],"globals":[]}`,
		`{"reason":{"type":"STEP","file":null,"line":null,"old":null,"detail":null}}`,
		`{"frames":[{"name":null,"depth":null,"pc":null,"vars":null}]}`,
		`{"globals":[{"name":"l","value":{"id":1,"kind":"LIST","list":[null,{"backref":1},{"id":2,"kind":"INVALID"}]}}]}`,
		// Integers.
		`{"reason":{"type":"EXITED","exit_code":-0}}`,
		`{"reason":{"type":"STEP","line":9223372036854775807}}`,
		`{"reason":{"type":"STEP","line":-9223372036854775808}}`,
		`{"reason":{"type":"STEP","line":9223372036854775808}}`,
		`{"reason":{"type":"STEP","line":-9223372036854775809}}`,
		`{"frames":[{"name":"f","depth":0,"pc":18446744073709551615}]}`,
		`{"frames":[{"name":"f","depth":0,"pc":18446744073709551616}]}`,
		`{"frames":[{"name":"f","depth":0,"pc":-1}]}`,
		`{"frames":[{"name":"f","depth":0,"pc":-0}]}`,
		`{"reason":{"type":"STEP","line":1.0}}`,
		`{"reason":{"type":"STEP","line":1e2}}`,
		`{"reason":{"type":"STEP","line":"1"}}`,
		`{"reason":{"type":"STEP","line":true}}`,
		`{"reason":{"type":"STEP","line":01}}`,
		`{"reason":{"type":"STEP","line":-}}`,
		`{"reason":{"type":"STEP","line":+1}}`,
		// Strings.
		`{"reason":{"type":"STEP","file":"%u00e9\n\t\"\\\/\b\f\r"}}`,
		`{"reason":{"type":"STEP","file":"%ud83d%ude00 %uD83D%uDE00"}}`,
		`{"reason":{"type":"STEP","file":"%ud800x"}}`,
		`{"reason":{"type":"STEP","file":"%udc00"}}`,
		`{"reason":{"type":"STEP","file":"%ud800%ud800%udc00"}}`,
		`{"reason":{"type":"STEP","file":"%ud800%u0041"}}`,
		`{"reason":{"type":"STEP","file":"%u2028%u2029<>&"}}`,
		`{"reason":{"type":"STEP","file":"%uZZZZ"}}`,
		`{"reason":{"type":"STEP","file":"%u12"}}`,
		`{"reason":{"type":"STEP","file":"\q"}}`,
		`{"reason":{"type":"STEP","file":"\'"}}`,
		`{"reason":{"type":"STEP","file":"abc`,
		`{"reason":{"type":5}}`,
		`{"reason":{"type":["STEP"]}}`,
		// Structure.
		`{"reason":{"type":"STEP"}} x`,
		`{"reason":{"type":"STEP"}}{}`,
		`{"reason":{"type":"STEP"},}`,
		`{,}`, `{"a" 1}`, `{'a':1}`, `{"a":1,,"b":2}`, `{"x":[1,]}`, `{"x":[,1]}`,
		`{"x":tru}`, `{"x":nul}`, `{"x":nulll}`, `{"x":-}`, `{"x":1.}`, `{"x":.5}`, `{"x":1e}`, `{"x":1e+}`,
		`{"frames":{}}`, `{"frames":[5]}`, `{"frames":[[]]}`, `{"frames":"f"}`,
		`{"reason":[]}`, `{"reason":"STEP"}`,
		`{"globals":[{"name":"g","value":[]}]}`,
		`{"globals":[{"name":"g","value":{"id":1,"kind":"PRIMITIVE","prim":5}}]}`,
		`{"globals":[{"name":"g","value":{"id":1,"kind":"LIST","list":{}}}]}`,
		// Rejected by the shared walk.
		`{"globals":[{"name":"g","value":{"backref":7}}]}`,
		`{"globals":[{"name":"g","value":{"id":1,"kind":"WHAT"}}]}`,
		`{"globals":[{"name":"g","value":{"id":1,"kind":"PRIMITIVE","prim":{"t":"int","v":"x"}}}]}`,
		// Documents for the other roots.
		`[{"id":1,"kind":"LIST","list":[{"backref":1}]},{"backref":1},null]`,
		`{"id":1,"kind":"REF","ref":{"backref":1}}`,
		`{"type":"WATCH","variable":"x","old":{"id":1,"kind":"NONE"},"new":{"backref":1}}`,
	} {
		docs = append(docs, esc(s))
	}
	return docs
}

func TestStateJSONParserMatchesReference(t *testing.T) {
	for _, doc := range parityDocs(t) {
		checkDoc(t, doc)
	}
}

func TestStateJSONDepthLimit(t *testing.T) {
	var s State
	if err := s.UnmarshalJSON(nest(9999)); err != nil {
		t.Errorf("depth 10000: %v", err)
	}
	if err := s.UnmarshalJSON(nest(10000)); err == nil || !strings.Contains(err.Error(), "max depth") {
		t.Errorf("depth 10001: err = %v, want a max depth error", err)
	}
}

func TestStateJSONTruncatedIsUnexpectedEOF(t *testing.T) {
	_, docs := goldenDocs(t)
	var s State
	err := s.UnmarshalJSON(docs[0][:len(docs[0])-1])
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("truncated document: err = %v, want io.ErrUnexpectedEOF", err)
	}
}

func TestStateJSONDecodedStringsAreCopies(t *testing.T) {
	doc := esc(`{"frames":[{"name":"plain","depth":0,"file":"f%u00e9.py","vars":[{"name":"s","value":{"id":1,"kind":"PRIMITIVE","ltype":"str","prim":{"t":"str","v":"text"}}}]}],"reason":{"type":"STEP","detail":"d"}}`)
	var s State
	if err := s.UnmarshalJSON(doc); err != nil {
		t.Fatal(err)
	}
	before, _ := s.MarshalJSON()
	for i := range doc {
		doc[i] = 'x'
	}
	if after, _ := s.MarshalJSON(); !bytes.Equal(after, before) {
		t.Errorf("decoded State changed with its input:\nbefore %s\nafter  %s", before, after)
	}
}

func TestStateJSONEncoderConcurrent(t *testing.T) {
	_, docs := goldenDocs(t)
	states := make([]*State, len(docs))
	for i, doc := range docs {
		states[i] = new(State)
		if err := refUnmarshalState(doc, states[i]); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var held [][]byte
			for round := 0; round < 20; round++ {
				for i, st := range states {
					got, err := st.MarshalJSON()
					if err != nil || !bytes.Equal(got, docs[i]) {
						t.Errorf("concurrent encode of document %d: %v\n%s", i, err, got)
						return
					}
					held = append(held, got)
				}
			}
			// Every returned slice still holds its own document after the
			// pooled buffer has been reused many times.
			for k, got := range held {
				if !bytes.Equal(got, docs[k%len(docs)]) {
					t.Errorf("returned document %d was overwritten", k)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func FuzzStateJSON(f *testing.F) {
	_, golden := goldenDocs(f)
	for _, doc := range golden {
		f.Add(doc)
	}
	for _, doc := range nullDocs {
		f.Add([]byte(doc))
	}
	var indented bytes.Buffer
	if err := json.Indent(&indented, golden[0], "", "  "); err != nil {
		f.Fatal(err)
	}
	f.Add(indented.Bytes())
	f.Add(golden[len(golden)-1][:len(golden[len(golden)-1])*2/3])
	f.Add(esc(`[{"id":1,"kind":"LIST","list":[{"backref":1}]},{"backref":1},null]`))
	f.Add(esc(`{"type":"WATCH","variable":"x","old":{"id":1,"kind":"NONE"},"new":{"backref":1}}`))
	f.Fuzz(checkDoc)
}
