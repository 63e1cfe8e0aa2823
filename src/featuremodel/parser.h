// Parser for the `.fm` feature-model DSL. Grammar (whitespace-insensitive,
// `//` line comments):
//
//   model        := featureDecl constraintSec?
//   featureDecl  := kind IDENT [ "abstract" ] [ group ] [ "{" featureDecl* "}" ]
//   kind         := "feature" | "mandatory" | "optional"   // root uses "feature"
//   group        := "or" | "alternative"                   // grouping of children
//   constraintSec:= "constraints" "{" constraint* "}"
//   constraint   := IDENT ("requires" | "excludes") IDENT ";"
//
// Example (abridged; the full Figure 2 model is models/fame_dbms.fm):
//
//   feature Tiny-DBMS {
//     mandatory OS-Abstraction alternative { mandatory Linux ... }
//     mandatory Storage abstract { ... }
//   }
//   constraints { Optimizer requires SQL-Engine; }
#ifndef FAME_FEATUREMODEL_PARSER_H_
#define FAME_FEATUREMODEL_PARSER_H_

#include <memory>
#include <string>

#include "featuremodel/model.h"

namespace fame::fm {

/// Parses a model from DSL text. ParseError carries line information.
StatusOr<std::unique_ptr<FeatureModel>> ParseModel(const std::string& text);

/// Serializes a model back to DSL text (ParseModel(ToDsl(m)) is identity up
/// to formatting).
std::string ToDsl(const FeatureModel& model);

}  // namespace fame::fm

#endif  // FAME_FEATUREMODEL_PARSER_H_
