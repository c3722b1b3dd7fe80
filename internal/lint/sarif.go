package lint

import "encoding/json"

// SARIF 2.1.0 output (-sarif), the minimal subset GitHub code scanning
// ingests: one run, one rule per check, one result per finding, every
// result an "error" — a finding fails the run.

const (
	sarifSchema  = "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json"
	sarifVersion = "2.1.0"
)

type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name           string      `json:"name"`
	InformationURI string      `json:"informationUri,omitempty"`
	Rules          []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string       `json:"id"`
	ShortDescription sarifMessage `json:"shortDescription"`
}

type sarifMessage struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	RuleIndex int             `json:"ruleIndex"`
	Level     string          `json:"level"`
	Message   sarifMessage    `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysicalLocation `json:"physicalLocation"`
}

type sarifPhysicalLocation struct {
	ArtifactLocation sarifArtifactLocation `json:"artifactLocation"`
	Region           sarifRegion           `json:"region"`
}

type sarifArtifactLocation struct {
	URI string `json:"uri"`
}

type sarifRegion struct {
	StartLine int `json:"startLine"`
}

// sarifRules lists every rule portalsvet can emit: the registered checks
// plus the two built into Run itself.
func sarifRules() []sarifRule {
	var rules []sarifRule
	for _, c := range AllChecks() {
		rules = append(rules, sarifRule{ID: c.Name(), ShortDescription: sarifMessage{Text: c.Doc()}})
	}
	rules = append(rules, sarifRule{
		ID:               "badsuppress",
		ShortDescription: sarifMessage{Text: "//lint:ignore directives are well-formed and carry a reason"},
	})
	return rules
}

// MarshalSARIF renders findings as a SARIF 2.1.0 log.
func MarshalSARIF(findings []Finding) ([]byte, error) {
	rules := sarifRules()
	index := make(map[string]int, len(rules))
	for i, r := range rules {
		index[r.ID] = i
	}
	results := make([]sarifResult, 0, len(findings))
	for _, f := range findings {
		idx, ok := index[f.Check]
		if !ok {
			idx = len(rules)
			index[f.Check] = idx
			rules = append(rules, sarifRule{ID: f.Check, ShortDescription: sarifMessage{Text: f.Check}})
		}
		results = append(results, sarifResult{
			RuleID:    f.Check,
			RuleIndex: idx,
			Level:     "error",
			Message:   sarifMessage{Text: f.Message},
			Locations: []sarifLocation{{
				PhysicalLocation: sarifPhysicalLocation{
					ArtifactLocation: sarifArtifactLocation{URI: f.File},
					Region:           sarifRegion{StartLine: f.Line},
				},
			}},
		})
	}
	log := sarifLog{
		Schema:  sarifSchema,
		Version: sarifVersion,
		Runs: []sarifRun{{
			Tool:    sarifTool{Driver: sarifDriver{Name: "portalsvet", Rules: rules}},
			Results: results,
		}},
	}
	data, err := json.MarshalIndent(log, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}
