package sqldb

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/stats"
)

// Table is an in-memory relation.
type Table struct {
	Name  string
	Cols  []ColumnDef
	Rows  [][]Value
	index map[string]int
}

// DB is an in-memory SQL database.
type DB struct {
	tables map[string]*Table
}

// Open returns an empty database.
func Open() *DB { return &DB{tables: make(map[string]*Table)} }

// Result is a query result set.
type Result struct {
	Cols []string
	Rows [][]Value
}

// String renders the result as an aligned table.
func (r *Result) String() string {
	rows := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		cells := make([]string, len(row))
		for j, v := range row {
			switch n := v.(type) {
			case float64:
				cells[j] = fmt.Sprintf("%.3f", n)
			case nil:
				cells[j] = "NULL"
			default:
				cells[j] = fmt.Sprint(v)
			}
		}
		rows[i] = cells
	}
	return stats.Table(r.Cols, rows)
}

// Exec parses and executes one statement.
func (db *DB) Exec(query string) (*Result, error) {
	s, err := parse(query)
	if err != nil {
		return nil, err
	}
	switch st := s.(type) {
	case createStmt:
		return db.execCreate(st)
	case insertStmt:
		return db.execInsert(st)
	case selectStmt:
		return db.execSelect(st)
	}
	return nil, fmt.Errorf("sql: unhandled statement %T", s)
}

// CreateTable declares a table programmatically (fast path for recorders).
func (db *DB) CreateTable(name string, cols ...ColumnDef) (*Table, error) {
	key := strings.ToLower(name)
	if _, exists := db.tables[key]; exists {
		return nil, fmt.Errorf("sql: table %q already exists", name)
	}
	t := &Table{Name: name, Cols: cols, index: make(map[string]int)}
	for i, c := range cols {
		t.index[strings.ToLower(c.Name)] = i
	}
	db.tables[key] = t
	return t, nil
}

// Insert appends a row programmatically without SQL parsing — the hot path
// used by transmission-log recording.
func (db *DB) Insert(table string, vals ...Value) error {
	t, ok := db.tables[strings.ToLower(table)]
	if !ok {
		return fmt.Errorf("sql: no table %q", table)
	}
	if len(vals) != len(t.Cols) {
		return fmt.Errorf("sql: table %q wants %d values, got %d", table, len(t.Cols), len(vals))
	}
	row := make([]Value, len(vals))
	for i, v := range vals {
		cv, err := coerce(v, t.Cols[i].Type)
		if err != nil {
			return fmt.Errorf("sql: column %q: %w", t.Cols[i].Name, err)
		}
		row[i] = cv
	}
	t.Rows = append(t.Rows, row)
	return nil
}

// Tables lists table names.
func (db *DB) Tables() []string {
	var names []string
	for _, t := range db.tables {
		names = append(names, t.Name)
	}
	sort.Strings(names)
	return names
}

func coerce(v Value, t ColType) (Value, error) {
	if v == nil {
		return nil, nil
	}
	switch t {
	case TypeInteger:
		switch n := v.(type) {
		case int64:
			return n, nil
		case int:
			return int64(n), nil
		case uint64:
			return int64(n), nil
		case float64:
			return int64(n), nil
		}
	case TypeReal:
		switch n := v.(type) {
		case float64:
			return n, nil
		case int64:
			return float64(n), nil
		case int:
			return float64(n), nil
		case uint64:
			return float64(n), nil
		}
	case TypeText:
		if s, ok := v.(string); ok {
			return s, nil
		}
	}
	return nil, fmt.Errorf("cannot store %T as %v", v, t)
}

func (db *DB) execCreate(st createStmt) (*Result, error) {
	if _, err := db.CreateTable(st.table, st.cols...); err != nil {
		return nil, err
	}
	return &Result{}, nil
}

func (db *DB) execInsert(st insertStmt) (*Result, error) {
	t, ok := db.tables[strings.ToLower(st.table)]
	if !ok {
		return nil, fmt.Errorf("sql: no table %q", st.table)
	}
	env := rowEnv{table: t}
	for _, rowExprs := range st.rows {
		vals := make([]Value, len(rowExprs))
		for i, ex := range rowExprs {
			v, err := eval(ex, &env)
			if err != nil {
				return nil, err
			}
			vals[i] = v
		}
		if err := db.Insert(st.table, vals...); err != nil {
			return nil, err
		}
	}
	return &Result{}, nil
}

func (db *DB) execSelect(st selectStmt) (*Result, error) {
	t, ok := db.tables[strings.ToLower(st.table)]
	if !ok {
		return nil, fmt.Errorf("sql: no table %q", st.table)
	}

	// WHERE filter.
	rows := t.Rows
	if st.where != nil {
		var kept [][]Value
		for _, row := range rows {
			env := rowEnv{table: t, row: row}
			v, err := eval(st.where, &env)
			if err != nil {
				return nil, err
			}
			b, err := truthy(v)
			if err != nil {
				return nil, err
			}
			if b {
				kept = append(kept, row)
			}
		}
		rows = kept
	}

	// SELECT * expansion.
	items := st.items
	if st.star {
		for _, c := range t.Cols {
			items = append(items, selectItem{ex: column{name: c.Name}})
		}
	}

	res := &Result{}
	for _, it := range items {
		if it.alias != "" {
			res.Cols = append(res.Cols, it.alias)
		} else {
			res.Cols = append(res.Cols, renderExpr(it.ex))
		}
	}

	// ORDER BY may reference select-item aliases; substitute them.
	aliases := make(map[string]expr)
	for _, it := range items {
		if it.alias != "" {
			aliases[strings.ToLower(it.alias)] = it.ex
		}
	}
	for i, k := range st.orderBy {
		if c, ok := k.ex.(column); ok {
			if sub, found := aliases[strings.ToLower(c.name)]; found {
				st.orderBy[i].ex = sub
			}
		}
	}

	aggregate := len(st.groupBy) > 0
	for _, it := range items {
		if hasAggregate(it.ex) {
			aggregate = true
		}
	}
	for _, k := range st.orderBy {
		if hasAggregate(k.ex) {
			aggregate = true
		}
	}

	type outRow struct {
		vals []Value
		keys []Value
	}
	var out []outRow

	produce := func(env *rowEnv) error {
		or := outRow{}
		for _, it := range items {
			v, err := eval(it.ex, env)
			if err != nil {
				return err
			}
			or.vals = append(or.vals, v)
		}
		for _, k := range st.orderBy {
			v, err := eval(k.ex, env)
			if err != nil {
				return err
			}
			or.keys = append(or.keys, v)
		}
		out = append(out, or)
		return nil
	}

	if aggregate {
		groups, order, err := groupRows(t, rows, st.groupBy)
		if err != nil {
			return nil, err
		}
		for _, key := range order {
			g := groups[key]
			env := rowEnv{table: t, group: g}
			if len(g) > 0 {
				env.row = g[0]
			}
			if err := produce(&env); err != nil {
				return nil, err
			}
		}
	} else {
		for _, row := range rows {
			env := rowEnv{table: t, row: row}
			if err := produce(&env); err != nil {
				return nil, err
			}
		}
	}

	if len(st.orderBy) > 0 {
		var sortErr error
		sort.SliceStable(out, func(i, j int) bool {
			for k := range st.orderBy {
				c, err := compare(out[i].keys[k], out[j].keys[k])
				if err != nil {
					sortErr = err
					return false
				}
				if c == 0 {
					continue
				}
				if st.orderBy[k].desc {
					return c > 0
				}
				return c < 0
			}
			return false
		})
		if sortErr != nil {
			return nil, sortErr
		}
	}
	if st.limit >= 0 && len(out) > st.limit {
		out = out[:st.limit]
	}
	for _, or := range out {
		res.Rows = append(res.Rows, or.vals)
	}
	return res, nil
}

// groupRows partitions rows by the GROUP BY columns, preserving first-seen
// group order. With no GROUP BY it returns a single group of all rows.
func groupRows(t *Table, rows [][]Value, by []string) (map[string][][]Value, []string, error) {
	groups := make(map[string][][]Value)
	var order []string
	if len(by) == 0 {
		groups[""] = rows
		return groups, []string{""}, nil
	}
	idx := make([]int, len(by))
	for i, name := range by {
		j, ok := t.index[strings.ToLower(name)]
		if !ok {
			return nil, nil, fmt.Errorf("sql: unknown GROUP BY column %q", name)
		}
		idx[i] = j
	}
	for _, row := range rows {
		var key strings.Builder
		for _, j := range idx {
			fmt.Fprintf(&key, "%v\x00", row[j])
		}
		k := key.String()
		if _, seen := groups[k]; !seen {
			order = append(order, k)
		}
		groups[k] = append(groups[k], row)
	}
	return groups, order, nil
}
