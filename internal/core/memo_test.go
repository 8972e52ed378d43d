package core

import (
	"crypto/sha256"
	"encoding"
	"encoding/hex"
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/pfs"
)

// TestJobKeySeesEveryField walks the types a job key marshals, through
// pointers, slices, arrays, maps and nested structs, and fails on anything
// JSON would skip or could encode differently for equal content: an
// unexported field, a json:"-" tag, a func, chan, interface, complex or
// unsafe pointer, or a type with its own marshaller.
func TestJobKeySeesEveryField(t *testing.T) {
	marshaler := reflect.TypeFor[json.Marshaler]()
	textMarshaler := reflect.TypeFor[encoding.TextMarshaler]()
	seen := make(map[reflect.Type]bool)
	var walk func(typ reflect.Type, path string)
	walk = func(typ reflect.Type, path string) {
		if seen[typ] {
			return
		}
		seen[typ] = true
		for _, m := range []reflect.Type{marshaler, textMarshaler} {
			if typ.Implements(m) || reflect.PointerTo(typ).Implements(m) {
				t.Errorf("%s: %v implements %v", path, typ, m)
			}
		}
		switch typ.Kind() {
		case reflect.Func, reflect.Chan, reflect.Interface, reflect.UnsafePointer,
			reflect.Complex64, reflect.Complex128:
			t.Errorf("%s: %v does not marshal as plain data", path, typ)
		case reflect.Pointer, reflect.Slice, reflect.Array:
			walk(typ.Elem(), path+"[]")
		case reflect.Map:
			walk(typ.Key(), path+"{key}")
			walk(typ.Elem(), path+"{}")
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				fp := path + "." + f.Name
				if !f.IsExported() {
					t.Errorf("%s: unexported field", fp)
					continue
				}
				if name, _, _ := strings.Cut(f.Tag.Get("json"), ","); name == "-" {
					t.Errorf("%s: tagged json:\"-\"", fp)
				}
				walk(f.Type, fp)
			}
		}
	}
	walk(reflect.TypeFor[cluster.Config](), "Config")
	walk(reflect.TypeFor[AppSpec](), "AppSpec")
}

// fill makes every nil pointer point at a zero value and every empty slice
// one element long, recursively, so every leaf of v is reachable.
func fill(v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			v.Set(reflect.New(v.Type().Elem()))
		}
		fill(v.Elem())
	case reflect.Slice:
		if v.Len() == 0 {
			v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		}
		for i := 0; i < v.Len(); i++ {
			fill(v.Index(i))
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fill(v.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fill(v.Field(i))
		}
	}
}

// eachLeaf calls fn on every bool, number and string under v, with its path.
func eachLeaf(v reflect.Value, path string, fn func(leaf reflect.Value, path string)) {
	switch v.Kind() {
	case reflect.Pointer:
		eachLeaf(v.Elem(), path, fn)
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			eachLeaf(v.Index(i), path+"[]", fn)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			eachLeaf(v.Field(i), path+"."+v.Type().Field(i).Name, fn)
		}
	default:
		fn(v, path)
	}
}

// bump changes a leaf to a different value of its kind.
func bump(t *testing.T, v reflect.Value, path string) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(2*v.Float() + 1)
	case reflect.String:
		v.SetString(v.String() + "x")
	default:
		t.Fatalf("%s: no way to change a %v", path, v.Kind())
	}
}

// TestJobKeyChangesWithEveryLeaf changes each leaf of a job's config and
// apps, one at a time, and requires the job key to change with it: two
// jobs that simulate different things never share a memoized result.
func TestJobKeyChangesWithEveryLeaf(t *testing.T) {
	cfg := tinyConfig(cluster.HDD, pfs.SyncOn)
	j := job{cfg: cfg, apps: TwoAppSpecs(cfg, 8, 4, tinyWorkload())}
	fill(reflect.ValueOf(&j.cfg))
	fill(reflect.ValueOf(&j.apps))
	key := func() string { return jobKeys([]job{j})[0] }
	base := key()
	if len(base) != 64 {
		t.Fatalf("key %q is not a hex sha256", base)
	}
	leaves := 0
	check := func(leaf reflect.Value, path string) {
		leaves++
		old := reflect.New(leaf.Type()).Elem()
		old.Set(leaf)
		bump(t, leaf, path)
		if key() == base {
			t.Errorf("changing %s leaves the job key unchanged", path)
		}
		leaf.Set(old)
		if key() != base {
			t.Fatalf("restoring %s did not restore the key", path)
		}
	}
	eachLeaf(reflect.ValueOf(&j.cfg), "cfg", check)
	eachLeaf(reflect.ValueOf(&j.apps), "apps", check)
	if leaves < 60 {
		t.Fatalf("only %d leaves walked", leaves)
	}
}

// TestJobKeysReuseConfig pins the one encoding of a config shared by a
// job list: every key equals the sha256 of that job's own JSON, across runs
// of equal configs, a config change mid-list and the change back.
func TestJobKeysReuseConfig(t *testing.T) {
	spec := deltaSpecForTest()
	other := spec
	other.Cfg.Backend = cluster.HDD
	jobs := append(append(spec.jobs(), other.jobs()...), spec.jobs()...)
	keys := jobKeys(jobs)
	for i, j := range jobs {
		b, err := json.Marshal(struct {
			Cfg  cluster.Config
			Apps []AppSpec
		}{j.cfg, j.apps})
		if err != nil {
			t.Fatal(err)
		}
		if sum := sha256.Sum256(b); keys[i] != hex.EncodeToString(sum[:]) {
			t.Fatalf("job %d: key %s is not the sha256 of its JSON", i, keys[i])
		}
	}
}

// countingMemo is a Memo over a map that runs one job at a time and
// counts the jobs it ran.
type countingMemo struct {
	mu   sync.Mutex
	res  map[string]RunResult
	runs int
}

func (m *countingMemo) Resolve(key string, run func() RunResult) RunResult {
	m.mu.Lock()
	defer m.mu.Unlock()
	r, ok := m.res[key]
	if !ok {
		r = run()
		m.runs++
		m.res[key] = r
	}
	return r
}

// TestRunnerMemo pins the memoized path: a δ-graph and pairwise matrix
// resolved through a memo equal the plain runner's, a second sweep over
// the same jobs runs nothing, and the results a memo shares cannot be
// written through: each caller gets its own per-app slice.
func TestRunnerMemo(t *testing.T) {
	spec := deltaSpecForTest()
	wantG, wantM := Runner{Parallelism: 1}.RunDeltaPairwise(spec)
	memo := &countingMemo{res: make(map[string]RunResult)}
	r := Runner{Parallelism: 4, Memo: memo}
	g, m := r.RunDeltaPairwise(spec)
	if !reflect.DeepEqual(wantG, g) || !reflect.DeepEqual(wantM, m) {
		t.Fatal("memoized RunDeltaPairwise diverged from the plain runner")
	}
	// 2 baselines + 7 δ points + 1 pair, of which the pair co-run is the
	// δ=0 point's job.
	if memo.runs != 9 {
		t.Fatalf("memo ran %d jobs, want 9 (the δ=0 point and the pair co-run are one job)", memo.runs)
	}
	g2, _ := r.RunDeltaPairwise(spec)
	if memo.runs != 9 || !reflect.DeepEqual(wantG, g2) {
		t.Fatalf("repeat sweep ran %d jobs in all, want 9, or diverged", memo.runs)
	}
	jobs := spec.jobs()
	a, b := r.runJobs(jobs[:1]), r.runJobs(jobs[:1])
	a[0].Apps[0].Elapsed = -1
	if b[0].Apps[0].Elapsed == -1 || memo.res[jobKeys(jobs[:1])[0]].Apps[0].Elapsed == -1 {
		t.Fatal("a caller wrote through a shared memoized result")
	}
}

// passMemo runs every job, as a memo that shares nothing would.
type passMemo struct{}

func (passMemo) Resolve(key string, run func() RunResult) RunResult { return run() }

// TestRunnerMemoPanicReachesCaller pins that a job panicking under a memo
// still reaches the Runner's caller.
func TestRunnerMemoPanicReachesCaller(t *testing.T) {
	cfg := tinyConfig(cluster.RAM, pfs.SyncOn)
	apps := TwoAppSpecs(cfg, 8, 4, tinyWorkload())
	apps[1].FirstNode = cfg.ComputeNodes // beyond the platform: Prepare panics
	defer func() {
		if recover() == nil {
			t.Fatal("a job's panic did not reach the caller")
		}
	}()
	Runner{Parallelism: 2, Memo: passMemo{}}.runJobs([]job{{cfg, apps[:1]}, {cfg, apps}})
}
