package serve

import (
	"strings"
	"testing"

	"repro/internal/sparse"
)

func TestDecodeRequestValid(t *testing.T) {
	in := `{
	  "tenant": "acme.prod",
	  "seed": 99,
	  "timeout_ms": 250,
	  "config": {
	    "tech": "MLC-RRAM",
	    "encoding": "BitM+IdxSync",
	    "default": {"bpc": 2, "ecc": true},
	    "overrides": {"values": {"bpc": 1}},
	    "retention_years": 3.5,
	    "ecc_block_bits": 128,
	    "degrade": true
	  }
	}`
	req, cfg, _, err := DecodeRequest(strings.NewReader(in), false)
	if err != nil {
		t.Fatal(err)
	}
	if req.Tenant != "acme.prod" || req.Seed != 99 || req.TimeoutMS != 250 {
		t.Errorf("request %+v", req)
	}
	if cfg.Encoding != sparse.KindBitMaskIdxSync || cfg.Tech.Name != "MLC-RRAM" {
		t.Errorf("config %s", cfg.String())
	}
	if cfg.RetentionYears != 3.5 || cfg.ECCBlockBits != 128 || !cfg.Degrade {
		t.Errorf("config extras %+v", cfg)
	}
	if p := cfg.Overrides["values"]; p.BPC != 1 || p.ECC {
		t.Errorf("override %+v", p)
	}
	if !cfg.Default.ECC || cfg.Default.BPC != 2 {
		t.Errorf("default %+v", cfg.Default)
	}
}

func TestDecodeRequestEncodingNames(t *testing.T) {
	for name, want := range map[string]sparse.Kind{
		"2:4": sparse.Kind24, "24": sparse.Kind24, "P+C": sparse.KindDense,
		" bitm+idxsync ": sparse.KindBitMaskIdxSync,
	} {
		_, cfg, _, err := DecodeRequest(strings.NewReader(
			`{"config":{"tech":"MLC-CTT","encoding":"`+name+`","default":{"bpc":3}}}`), false)
		if err != nil {
			t.Errorf("encoding %q: %v", name, err)
		} else if cfg.Encoding != want {
			t.Errorf("encoding %q decoded as %v, want %v", name, cfg.Encoding, want)
		}
	}
}

func TestDecodeRequestDefaultsTenant(t *testing.T) {
	req, _, _, err := DecodeRequest(strings.NewReader(
		`{"config":{"tech":"MLC-CTT","encoding":"csr","default":{"bpc":3}}}`), false)
	if err != nil {
		t.Fatal(err)
	}
	if req.Tenant != "default" {
		t.Errorf("tenant %q, want \"default\"", req.Tenant)
	}
}

func TestDecodeRequestLifetime(t *testing.T) {
	in := `{"config":{"tech":"MLC-CTT","encoding":"csr","default":{"bpc":3}},` +
		`"lifetime":{"years":10,"scrub_interval_years":2,"floor_delta":0.05}}`
	_, _, lp, err := DecodeRequest(strings.NewReader(in), true)
	if err != nil {
		t.Fatal(err)
	}
	if lp.Years != 10 || lp.ScrubIntervalYears != 2 || lp.FloorDelta != 0.05 {
		t.Errorf("policy %+v", lp)
	}
	if lp.EpochCount() != 5 {
		t.Errorf("epochs %d, want 5", lp.EpochCount())
	}
}

func TestDecodeRequestRejects(t *testing.T) {
	cases := []struct {
		name, in string
		lifetime bool
		wantSub  string
	}{
		{"nan retention", `{"config":{"tech":"MLC-CTT","encoding":"csr","default":{"bpc":3},"retention_years":1e999}}`, false, "parsing"},
		{"negative override", `{"config":{"tech":"MLC-CTT","encoding":"csr","default":{"bpc":3},"overrides":{"values":{"bpc":-2}}}}`, false, "must not be negative"},
		{"unknown override stream", `{"config":{"tech":"MLC-CTT","encoding":"csr","default":{"bpc":3},"overrides":{"wavelets":{"bpc":1}}}}`, false, "wavelets"},
		{"bitmask colidx override", `{"config":{"tech":"MLC-CTT","encoding":"bitmask","default":{"bpc":3},"overrides":{"colidx":{"bpc":1}}}}`, false, "colidx"},
		{"csr meta24 override", `{"config":{"tech":"MLC-CTT","encoding":"csr","default":{"bpc":3},"overrides":{"meta24":{"bpc":1}}}}`, false, "meta24"},
		{"unknown encoding", `{"config":{"tech":"MLC-CTT","encoding":"coo","default":{"bpc":3}}}`, false, "2:4"},
		{"empty body", ``, false, "parsing"},
		{"tenant too long", `{"tenant":"` + strings.Repeat("a", 65) + `","config":{"tech":"MLC-CTT","encoding":"csr","default":{"bpc":3}}}`, false, "tenant"},
		{"scrub interval negative", `{"config":{"tech":"MLC-CTT","encoding":"csr","default":{"bpc":3}},"lifetime":{"years":5,"scrub_interval_years":-1}}`, true, "must not be negative"},
		{"epoch cap", `{"config":{"tech":"MLC-CTT","encoding":"csr","default":{"bpc":3}},"lifetime":{"years":1000000,"scrub_interval_years":0.001}}`, true, "cap"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, _, err := DecodeRequest(strings.NewReader(tc.in), tc.lifetime)
			if err == nil {
				t.Fatalf("decoded invalid input %q", tc.in)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}

// FuzzDecodeRequest pins the decoder's no-panic contract: any byte
// sequence either decodes into a configuration that passes the same
// validation the pipeline trusts, or is rejected with an error — never a
// panic, never a NaN or negative magnitude smuggled through.
func FuzzDecodeRequest(f *testing.F) {
	f.Add([]byte(`{"config":{"tech":"MLC-CTT","encoding":"csr","default":{"bpc":3}}}`), false)
	f.Add([]byte(`{"tenant":"acme","seed":7,"config":{"tech":"MLC-RRAM","encoding":"bitmask","default":{"bpc":2,"ecc":true},"overrides":{"values":{"bpc":1}}}}`), false)
	f.Add([]byte(`{"config":{"tech":"SLC-RRAM","encoding":"dense","default":{"bpc":1}},"lifetime":{"years":10,"scrub_interval_years":2}}`), true)
	f.Add([]byte(`{"config":{"tech":"MLC-CTT","encoding":"csr","default":{"bpc":-3}}}`), false)
	f.Add([]byte(`{"config":{"tech":"MLC-CTT","encoding":"csr","default":{"bpc":3},"retention_years":-1}}`), false)
	f.Add([]byte(`{"timeout_ms":-1}`), false)
	f.Add([]byte(`{"config":{"tech":"","encoding":""}}`), true)
	f.Add([]byte(`null`), false)
	f.Add([]byte(`{"config":{"tech":"MLC-CTT","encoding":"2:4","default":{"bpc":3},"overrides":{"meta24":{"bpc":1}}}}`), false)
	f.Add([]byte(`{"config":{"tech":"MLC-CTT","encoding":"bitmask","default":{"bpc":3},"overrides":{"colidx":{"bpc":1}}}}`), false)
	f.Fuzz(func(t *testing.T, data []byte, lifetime bool) {
		req, cfg, lp, err := DecodeRequest(strings.NewReader(string(data)), lifetime)
		if err != nil {
			return
		}
		// Whatever decodes must satisfy the pipeline's own validators and
		// the wire invariants the server relies on.
		if req.Tenant == "" || !validTenant(req.Tenant) {
			t.Fatalf("accepted tenant %q", req.Tenant)
		}
		if req.TimeoutMS < 0 {
			t.Fatalf("accepted timeout_ms %d", req.TimeoutMS)
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("accepted config that fails Validate: %v", err)
		}
		if cfg.RetentionYears < 0 {
			t.Fatalf("accepted retention %g", cfg.RetentionYears)
		}
		if lifetime {
			if err := lp.Validate(); err != nil {
				t.Fatalf("accepted lifetime policy that fails Validate: %v", err)
			}
		}
	})
}
